package netsim

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMPSCSingleThreaded(t *testing.T) {
	r := NewMPSC[int](8)
	for i := 0; i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestMPSCConcurrentProducers(t *testing.T) {
	r := NewMPSC[uint64](256)
	const producers = 4
	const perProducer = 1 << 11
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(p)<<32 | uint64(i)
				for !r.Push(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	seen := make([]uint32, producers) // next expected per producer
	var count int
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		v, ok := r.Pop()
		if ok {
			p := int(v >> 32)
			i := uint32(v)
			if i != seen[p] {
				t.Errorf("producer %d out of order: got %d want %d", p, i, seen[p])
				return
			}
			seen[p]++
			count++
			if count == producers*perProducer {
				break
			}
			continue
		}
		select {
		case <-done:
			// Producers finished; drain whatever remains.
			if v, ok := r.Pop(); ok {
				p := int(v >> 32)
				seen[p]++
				count++
				continue
			}
			if count != producers*perProducer {
				t.Fatalf("consumed %d, want %d", count, producers*perProducer)
			}
			return
		default:
			runtime.Gosched()
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := Request{ID: 42, SentNs: 123456789, Kind: 7, Payload: []byte("key-001")}
	pkt := EncodeRequest(nil, &req)
	got, err := DecodeRequest(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.SentNs != req.SentNs || got.Kind != req.Kind {
		t.Fatalf("header mismatch: %+v vs %+v", got, req)
	}
	if !bytes.Equal(got.Payload, req.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{ID: 9, SentNs: 55, ServerNs: 777, Kind: 3}
	pkt := EncodeResponse(nil, &resp)
	got, err := DecodeResponse(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != resp {
		t.Fatalf("got %+v, want %+v", got, resp)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("short request err = %v", err)
	}
	bad := make([]byte, HeaderSize)
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	// Payload length larger than the packet.
	req := Request{ID: 1, Payload: []byte("abcd")}
	pkt := EncodeRequest(nil, &req)
	if _, err := DecodeRequest(pkt[:len(pkt)-2]); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("truncated payload err = %v", err)
	}
	if _, err := DecodeResponse([]byte{}); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("short response err = %v", err)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, sent int64, kind uint16, payload []byte) bool {
		req := Request{ID: id, SentNs: sent, Kind: kind, Payload: payload}
		got, err := DecodeRequest(EncodeRequest(nil, &req))
		return err == nil && got.ID == id && got.SentNs == sent &&
			got.Kind == kind && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	p := NewBufferPool(8, 64)
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(b))
	}
	b[0] = 0xAB
	p.Release(b)
	// Pool is LIFO-ish through the ring; eventually we get a 64-byte
	// buffer back.
	b2 := p.Get()
	if len(b2) != 64 {
		t.Fatalf("recycled buffer wrong size %d", len(b2))
	}
}

func TestBufferPoolConcurrentRelease(t *testing.T) {
	p := NewBufferPool(64, 32)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.Release(make([]byte, 32))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	count := 0
	for {
		select {
		case <-done:
			for i := 0; i < 100; i++ {
				if b := p.Get(); len(b) != 32 {
					t.Fatalf("Get returned %d bytes", len(b))
				}
				count++
			}
			return
		default:
			if b := p.Get(); len(b) != 32 {
				t.Fatalf("Get returned %d bytes", len(b))
			}
			count++
		}
	}
}

func BenchmarkMPSCPush(b *testing.B) {
	r := NewMPSC[uint64](1 << 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single consumer drains continuously
		defer wg.Done()
		for {
			if _, ok := r.Pop(); !ok {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for !r.Push(1) {
				runtime.Gosched()
			}
		}
	})
	close(stop)
	wg.Wait()
}
