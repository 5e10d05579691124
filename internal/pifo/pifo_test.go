package pifo

import (
	"sort"
	"testing"
)

// lcg is the test's deterministic rank source.
type lcg uint64

func (l *lcg) next() int64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int64(*l >> 33)
}

// TestQueuePopsInRankOrder checks the heap against a sorted reference:
// pushing random ranks and draining must yield a nondecreasing rank
// sequence containing exactly the pushed multiset.
func TestQueuePopsInRankOrder(t *testing.T) {
	var q Queue[int]
	var r lcg = 42
	const n = 4096
	want := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rank := r.next() % 1000 // force plenty of ties
		q.Push(i, rank)
		want = append(want, rank)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := 0; i < n; i++ {
		_, rank, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if rank != want[i] {
			t.Fatalf("pop %d: rank %d, want %d", i, rank, want[i])
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after draining")
	}
}

// TestQueueFIFOTieBreak pins the PIFO contract's deterministic half:
// equal ranks pop in push order, so a single-rank queue is plain FIFO.
func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	const n = 1000
	for i := 0; i < n; i++ {
		q.Push(i, 7)
	}
	for i := 0; i < n; i++ {
		v, rank, ok := q.Pop()
		if !ok || v != i || rank != 7 {
			t.Fatalf("pop %d: got (%d, %d, %v), want FIFO order", i, v, rank, ok)
		}
	}
}

// TestQueueInterleavedTies checks tie-breaking across interleaved
// pushes and pops: elements re-pushed at the same rank go behind
// everything already queued at that rank.
func TestQueueInterleavedTies(t *testing.T) {
	var q Queue[string]
	q.Push("a", 1)
	q.Push("b", 1)
	if v, _, _ := q.Pop(); v != "a" {
		t.Fatalf("got %q, want a", v)
	}
	q.Push("a", 1) // re-queue at the same rank: now behind b
	q.Push("c", 0) // lower rank jumps the whole tie group
	for i, want := range []string{"c", "b", "a"} {
		if v, _, _ := q.Pop(); v != want {
			t.Fatalf("pop %d: got %q, want %q", i, v, want)
		}
	}
}

// TestQueuePeek checks Peek mirrors the next Pop without consuming it.
func TestQueuePeek(t *testing.T) {
	var q Queue[int]
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported an element")
	}
	q.Push(10, 5)
	q.Push(20, 3)
	pv, pr, ok := q.Peek()
	if !ok || pv != 20 || pr != 3 {
		t.Fatalf("Peek = (%d, %d, %v), want (20, 3, true)", pv, pr, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after Peek, want 2", q.Len())
	}
	v, r, _ := q.Pop()
	if v != pv || r != pr {
		t.Fatalf("Pop = (%d, %d) disagrees with Peek (%d, %d)", v, r, pv, pr)
	}
}

// TestQueueReset: a reset queue keeps its array, holds none of the old
// elements, and is a zero queue in every other respect — its tie-break
// sequence restarts, so a recycled queue's state matches a fresh one's.
func TestQueueReset(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 9; i++ {
		q.Push(new(int), int64(i%3))
	}
	q.Pop()
	c := cap(q.items)
	q.Reset()
	if q.Len() != 0 || cap(q.items) != c || q.seq != 0 {
		t.Fatalf("after Reset: Len %d, cap %d, seq %d; want 0, the kept %d, 0", q.Len(), cap(q.items), q.seq, c)
	}
	for i, it := range q.items[:c] {
		if it.v != nil {
			t.Fatalf("slot %d still holds an element after Reset", i)
		}
	}
	a, b := new(int), new(int)
	q.Push(a, 4)
	q.Push(b, 4)
	if v, _, _ := q.Pop(); v != a {
		t.Fatal("ties after Reset did not pop in push order")
	}
}

// TestDisciplineRanks pins each discipline's rank function on one set
// of inputs — the policy table as a truth table.
func TestDisciplineRanks(t *testing.T) {
	in := RankInputs{
		Now:       1000,
		Arrival:   400,
		Remaining: 250,
		Attained:  150,
		Deadline:  900,
		Priority:  2,
	}
	cases := []struct {
		d    Discipline
		want int64
	}{
		{RR, 1000},
		{FCFS, 400},
		{SRPT, 250},
		{EDF, 900},
		{LAS, 150},
		{PrioAge, 400 + 2*AgeBoost},
	}
	for _, c := range cases {
		if got := c.d.Rank(in); got != c.want {
			t.Errorf("%s.Rank = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestParseNamesRoundTrip checks Parse/String/Names agree, plus the
// sjf alias and the error path.
func TestParseNamesRoundTrip(t *testing.T) {
	for i, name := range Names() {
		d, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if int(d) != i {
			t.Errorf("Parse(%q) = %d, want %d", name, d, i)
		}
		if d.String() != name {
			t.Errorf("%d.String() = %q, want %q", i, d.String(), name)
		}
	}
	if d, err := Parse("sjf"); err != nil || d != SRPT {
		t.Errorf("Parse(sjf) = (%v, %v), want (SRPT, nil)", d, err)
	}
	if _, err := Parse("wfq"); err == nil {
		t.Error("Parse(wfq) succeeded, want error")
	}
	if got := Discipline(99).String(); got != "pifo.Discipline(99)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

// TestChurnDeterministic checks the benchmark body is a pure function
// of its arguments (it feeds the fixed bench matrix).
func TestChurnDeterministic(t *testing.T) {
	a := Churn(256, 10_000, 61)
	b := Churn(256, 10_000, 61)
	if a != b {
		t.Fatalf("Churn not deterministic: %d vs %d", a, b)
	}
	if c := Churn(256, 10_000, 62); c == a {
		t.Log("different seed produced the same checksum (possible but unlikely)")
	}
}

// TestPushPopSteadyStateAllocs is the hotpath guard behind the
// //simvet:hotpath annotations on Push and Pop: once the queue has
// reached its working depth, a pop/push cycle must not allocate. The
// bound uses the testing.B convention (allocs/op truncated toward
// zero), so amortized one-time heap growth is tolerated but any
// per-operation allocation fails.
func TestPushPopSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc guarantee is for production builds")
	}
	var q Queue[int]
	var r lcg = 7
	for i := 0; i < 1024; i++ {
		q.Push(i, r.next())
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		v, _, _ := q.Pop()
		q.Push(v, r.next())
	})
	if int64(allocs) != 0 {
		t.Fatalf("steady-state pop/push allocates: %.4f allocs/op, want 0", allocs)
	}
}

// BenchmarkPushPop is the in-package twin of the bench matrix's
// pifo/push-pop entry.
func BenchmarkPushPop(b *testing.B) {
	b.ReportAllocs()
	Churn(1024, b.N, 61)
}
