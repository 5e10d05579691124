// Package netsim provides the networking substrate of the TQ
// implementation (§4): request/response framing, a load-generating
// client, and the RX-buffer pool.
//
// The pool's ring is a real concurrent data structure, not a simulation
// stand-in: an MPSC ring returns RX buffers from worker cores back to
// the dispatcher's allocator, the "multi-producer, single-consumer
// memory pool" of §4.
package netsim

import (
	"fmt"
	"sync/atomic"
)

// cacheLinePad separates hot atomics to avoid false sharing between the
// producer and consumer cores.
type cacheLinePad [64]byte

// MPSC is a bounded multi-producer single-consumer ring: any number of
// goroutines may Push concurrently; a single goroutine Pops. It backs
// the shared RX-buffer pool that worker cores release parsed buffers
// into (§4).
type MPSC[T any] struct {
	mask uint64
	buf  []mpscSlot[T]
	_    cacheLinePad
	head uint64 // consumer-owned, no concurrent access
	_    cacheLinePad
	tail atomic.Uint64
}

type mpscSlot[T any] struct {
	// seq implements the Vyukov bounded-queue protocol: a slot is
	// writable when seq == index, readable when seq == index+1.
	seq atomic.Uint64
	v   T
}

// NewMPSC returns a ring with the given capacity, which must be a
// power of two and at least 2.
func NewMPSC[T any](capacity int) *MPSC[T] {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("netsim: MPSC capacity %d is not a power of two >= 2", capacity))
	}
	r := &MPSC[T]{mask: uint64(capacity - 1), buf: make([]mpscSlot[T], capacity)}
	for i := range r.buf {
		r.buf[i].seq.Store(uint64(i))
	}
	return r
}

// Push appends v; it reports false if the ring is full.
func (r *MPSC[T]) Push(v T) bool {
	for {
		t := r.tail.Load()
		s := &r.buf[t&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == t:
			if r.tail.CompareAndSwap(t, t+1) {
				s.v = v
				s.seq.Store(t + 1)
				return true
			}
		case seq < t:
			return false // slot still unread from a full lap ago: full
		}
		// Otherwise another producer claimed the slot; retry.
	}
}

// Pop removes the oldest element; it reports false if the ring is
// empty. Only the single consumer may call Pop.
func (r *MPSC[T]) Pop() (T, bool) {
	var zero T
	s := &r.buf[r.head&r.mask]
	if s.seq.Load() != r.head+1 {
		return zero, false
	}
	v := s.v
	s.v = zero
	s.seq.Store(r.head + uint64(len(r.buf)))
	r.head++
	return v, true
}

// Cap returns the ring capacity.
func (r *MPSC[T]) Cap() int { return len(r.buf) }
