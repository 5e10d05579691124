package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q FIFO[int]
	next := 0
	expect := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			v, _ := q.Pop()
			if v != expect {
				t.Fatalf("got %d, want %d", v, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != expect {
			t.Fatalf("drain got %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

func TestFIFOPeek(t *testing.T) {
	var q FIFO[string]
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = (%q, %v), want (a, true)", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an element")
	}
}

func TestFIFOWraparoundGrowth(t *testing.T) {
	// Force growth while head is in the middle of the ring.
	var q FIFO[int]
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	for i := 0; i < 4; i++ {
		q.Pop()
	}
	for i := 6; i < 30; i++ {
		q.Push(i)
	}
	for want := 4; want < 30; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

// TestFIFOReset: a reset queue keeps its buffer, holds none of the old
// elements, and behaves like an empty one from a wrapped-around head.
func TestFIFOReset(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 12; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	buf := len(q.buf)
	q.Reset()
	if q.Len() != 0 || len(q.buf) != buf {
		t.Fatalf("after Reset: Len %d, buffer %d; want 0 and the kept %d", q.Len(), len(q.buf), buf)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds an element after Reset", i)
		}
	}
	want := []int{1, 2, 3}
	for i := range want {
		q.Push(&want[i])
	}
	for i := range want {
		if v, ok := q.Pop(); !ok || v != &want[i] {
			t.Fatalf("pop %d after Reset: got %v, want element %d", i, v, i)
		}
	}
}

func TestLASQueueOrdering(t *testing.T) {
	var q LASQueue[string]
	q.Push("c", 30)
	q.Push("a", 10)
	q.Push("b", 20)
	wantOrder := []string{"a", "b", "c"}
	wantAtt := []int64{10, 20, 30}
	for i := range wantOrder {
		v, att, ok := q.Pop()
		if !ok || v != wantOrder[i] || att != wantAtt[i] {
			t.Fatalf("pop %d = (%v,%d,%v)", i, v, att, ok)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty LAS queue returned ok")
	}
}

func TestLASQueueTiesFIFO(t *testing.T) {
	var q LASQueue[int]
	for i := 0; i < 10; i++ {
		q.Push(i, 5)
	}
	for i := 0; i < 10; i++ {
		v, _, _ := q.Pop()
		if v != i {
			t.Fatalf("ties not FIFO: got %d at position %d", v, i)
		}
	}
}

func TestLASQueueProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var q LASQueue[int]
		for i := 0; i < 100; i++ {
			q.Push(i, int64(r.Uint64n(50)))
		}
		prev := int64(-1)
		for q.Len() > 0 {
			_, att, _ := q.Pop()
			if att < prev {
				return false
			}
			prev = att
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fakeView is a fixed-load View for balancer tests.
type fakeView struct {
	lens   []int
	quanta []int64
}

func (v fakeView) Workers() int { return len(v.lens) }
func (v fakeView) Load() ([]int, []int64) {
	if v.quanta == nil {
		return v.lens, make([]int64, len(v.lens))
	}
	return v.lens, v.quanta
}

func TestJSQPicksShortest(t *testing.T) {
	b := &JSQ{}
	v := fakeView{lens: []int{3, 1, 2, 5}}
	if got := b.Pick(v); got != 1 {
		t.Fatalf("JSQ picked %d, want 1", got)
	}
}

func TestJSQMSQTieBreak(t *testing.T) {
	b := &JSQ{}
	// Workers 0, 2, 3 tie at queue length 1; worker 2 has the most
	// serviced quanta for its current jobs.
	v := fakeView{
		lens:   []int{1, 4, 1, 1},
		quanta: []int64{10, 99, 70, 30},
	}
	if got := b.Pick(v); got != 2 {
		t.Fatalf("JSQ+MSQ picked %d, want 2", got)
	}
}

func TestMSQDeterministicOnFullTie(t *testing.T) {
	v := fakeView{lens: []int{2, 1, 1}, quanta: []int64{9, 5, 5}}
	if got := (&JSQ{}).Pick(v); got != 1 {
		t.Fatalf("MSQ full tie picked %d, want 1 (lowest tied index)", got)
	}
}

// tiedShortest lists the workers on the shortest queue, in index order:
// the candidate set JSQ's definition breaks ties over.
func tiedShortest(lens []int) []int {
	var tied []int
	for w, l := range lens {
		switch {
		case len(tied) == 0 || l < lens[tied[0]]:
			tied = append(tied[:0], w)
		case l == lens[tied[0]]:
			tied = append(tied, w)
		}
	}
	return tied
}

// TestJSQMatchesDefinition checks both tie-breaks against the
// two-step definition — list the shortest queues, then break the tie —
// on random views: MSQ's single pass must pick the tied worker with the
// most quanta (lowest index among equals), and RandomTie must consume
// exactly one Intn(len(tied)) per tied pick and none otherwise, which
// is what keeps seeded runs bit-identical.
func TestJSQMatchesDefinition(t *testing.T) {
	r := rng.New(11)
	twin := rng.New(99)
	random := &JSQ{RandomTie: rng.New(99)}
	msq := &JSQ{}
	for trial := 0; trial < 5000; trial++ {
		n := r.Intn(16) + 1
		v := fakeView{lens: make([]int, n), quanta: make([]int64, n)}
		for w := range v.lens {
			v.lens[w] = r.Intn(3)
			v.quanta[w] = int64(r.Intn(4))
		}
		tied := tiedShortest(v.lens)
		want := tied[0]
		for _, w := range tied[1:] {
			if v.quanta[w] > v.quanta[want] {
				want = w
			}
		}
		if got := msq.Pick(v); got != want {
			t.Fatalf("lens %v quanta %v: JSQ+MSQ picked %d, want %d", v.lens, v.quanta, got, want)
		}
		want = tied[0]
		if len(tied) > 1 {
			want = tied[twin.Intn(len(tied))]
		}
		if got := random.Pick(v); got != want {
			t.Fatalf("lens %v: JSQ+random-tie picked %d, want %d", v.lens, got, want)
		}
	}
}

func TestRandomTieUniform(t *testing.T) {
	b := &JSQ{RandomTie: rng.New(1)}
	v := fakeView{lens: []int{0, 0, 7, 0}}
	counts := make([]int, 4)
	for i := 0; i < 30000; i++ {
		counts[b.Pick(v)]++
	}
	for _, w := range []int{0, 1, 3} {
		if c := counts[w]; c < 9000 || c > 11000 {
			t.Fatalf("worker %d picked %d/30000 times, want ~10000", w, c)
		}
	}
}

func TestPowerOfTwoPrefersShorter(t *testing.T) {
	b := PowerOfTwo{R: rng.New(2)}
	v := fakeView{lens: []int{0, 10}}
	// With 2 workers, both are always sampled; must always pick 0.
	for i := 0; i < 100; i++ {
		if got := b.Pick(v); got != 0 {
			t.Fatalf("PowerOfTwo picked %d, want 0", got)
		}
	}
}

func TestPowerOfTwoSamplesDistinct(t *testing.T) {
	b := PowerOfTwo{R: rng.New(3)}
	// All equal loads: every worker should be reachable.
	v := fakeView{lens: make([]int, 8)}
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		seen[b.Pick(v)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("PowerOfTwo reached %d/8 workers", len(seen))
	}
}

func TestRandomBalancerRange(t *testing.T) {
	b := Random{R: rng.New(4)}
	v := fakeView{lens: make([]int, 5)}
	for i := 0; i < 1000; i++ {
		w := b.Pick(v)
		if w < 0 || w >= 5 {
			t.Fatalf("Random picked out-of-range worker %d", w)
		}
	}
}

func TestRSSSteerStableAndBounded(t *testing.T) {
	var rss RSS
	for key := uint64(0); key < 1000; key++ {
		w := rss.Steer(key, 16)
		if w < 0 || w >= 16 {
			t.Fatalf("RSS steered key %d to %d", key, w)
		}
		if w2 := rss.Steer(key, 16); w2 != w {
			t.Fatalf("RSS not deterministic for key %d", key)
		}
	}
}

func TestRSSBalancesRoughly(t *testing.T) {
	var rss RSS
	const n = 160000
	counts := make([]int, 16)
	for key := uint64(0); key < n; key++ {
		counts[rss.Steer(key, 16)]++
	}
	want := n / 16
	for w, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("RSS worker %d got %d keys, want about %d", w, c, want)
		}
	}
}

func TestLoadTrackerQueueLen(t *testing.T) {
	lt := NewLoadTracker(2, 8)
	lt.Assign(0)
	lt.Assign(0)
	lt.Assign(1)
	if lens, _ := lt.Load(); lens[0] != 2 {
		t.Fatalf("lens[0] = %d, want 2", lens[0])
	}
	lt.ObserveFinished(0, 1) // worker 0 finished one job
	if lens, _ := lt.Load(); lens[0] != 1 || lens[1] != 1 {
		t.Fatalf("lens after finish = %v, want [1 1]", lens)
	}
}

func TestLoadTrackerCounterWrap(t *testing.T) {
	// 4-bit worker counter wraps at 16; the tracker must still recover
	// totals as long as it reads often enough.
	lt := NewLoadTracker(1, 4)
	var raw uint64
	for i := 0; i < 100; i++ {
		lt.Assign(0)
		raw = (raw + 1) & 0xf
		lt.ObserveFinished(0, raw)
		if lens, _ := lt.Load(); lens[0] != 0 {
			t.Fatalf("step %d: lens[0] = %d, want 0", i, lens[0])
		}
	}
}

func TestLoadTrackerQuanta(t *testing.T) {
	lt := NewLoadTracker(3, 32)
	lt.ObserveQuanta(1, 42)
	if _, quanta := lt.Load(); quanta[1] != 42 {
		t.Fatalf("quanta[1] = %d, want 42", quanta[1])
	}
}

func TestJSQUsesLoadTrackerEndToEnd(t *testing.T) {
	lt := NewLoadTracker(3, 16)
	b := &JSQ{}
	// Assign round-robin-ish and verify JSQ follows the shortest queue.
	lt.Assign(0)
	lt.Assign(0)
	lt.Assign(1)
	if got := b.Pick(lt); got != 2 {
		t.Fatalf("pick = %d, want 2 (empty)", got)
	}
	lt.Assign(2)
	lt.Assign(2)
	// Queues now 2,1,2 -> worker 1.
	if got := b.Pick(lt); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func BenchmarkJSQPick16(b *testing.B) {
	lt := NewLoadTracker(16, 32)
	r := rng.New(1)
	for w := 0; w < 16; w++ {
		for i := 0; i < r.Intn(8); i++ {
			lt.Assign(w)
		}
	}
	bal := &JSQ{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bal.Pick(lt)
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	var q FIFO[uint64]
	for i := 0; i < 64; i++ {
		q.Push(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := q.Pop()
		q.Push(v)
	}
}
