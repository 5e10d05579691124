// Package core implements the scheduling-policy building blocks of Tiny
// Quanta as plain data structures, shared by the discrete-event machine
// models (internal/cluster) and the live goroutine runtime
// (internal/tqrt):
//
//   - FIFO: the processor-sharing run queue used by TQ workers (§3.2)
//     and the FCFS queue used by the Caladan baseline;
//   - LASQueue: a least-attained-service queue, the dynamic-quantum
//     policy the probe mechanism is designed to support (§3.1);
//   - LoadTracker: the dispatcher's view of per-worker load, recovered
//     from wrapping worker-side counters by delta reads (§4);
//   - Balancer implementations: JSQ (with the paper's MSQ tie-breaking
//     or random ties), power-of-two, random, and RSS-hash steering.
package core

import "repro/internal/rng"

// FIFO is an allocation-free ring-buffer queue. TQ's per-worker
// processor-sharing scheduler is exactly this structure: yielded
// coroutines enqueue at the tail and the head is resumed next (§4).
// The buffer's length is always a power of two (see grow), so indices
// wrap with a mask instead of an integer divide per push and pop.
type FIFO[T any] struct {
	buf  []T
	head int
	size int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.size }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

// Pop removes and returns the head. The second result is false if the
// queue is empty.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v, true
}

// Reset empties the queue, clearing but keeping its buffer for reuse.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.head, q.size = 0, 0
}

// Peek returns the head without removing it.
func (q *FIFO[T]) Peek() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// grow doubles the buffer (8 first), unrolling the ring to its start.
func (q *FIFO[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	if n&(n-1) != 0 {
		panic("core: FIFO capacity must stay a power of two")
	}
	nb := make([]T, n)
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// LASQueue orders jobs by least attained service, approximating SRPT
// without service-time knowledge. Push records a job with its attained
// service; Pop returns the job that has received the least so far.
// It is a binary min-heap keyed by (attained, seq) so that ties resolve
// in insertion order, keeping runs deterministic.
type LASQueue[T any] struct {
	items []lasItem[T]
	seq   uint64
}

type lasItem[T any] struct {
	attained int64
	seq      uint64
	v        T
}

// Len reports the number of queued jobs.
func (q *LASQueue[T]) Len() int { return len(q.items) }

// Push inserts v with the given attained service.
func (q *LASQueue[T]) Push(v T, attained int64) {
	q.seq++
	q.items = append(q.items, lasItem[T]{attained: attained, seq: q.seq, v: v})
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *LASQueue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.attained != b.attained {
		return a.attained < b.attained
	}
	return a.seq < b.seq
}

// Pop removes and returns the job with least attained service.
func (q *LASQueue[T]) Pop() (T, int64, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, 0, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = lasItem[T]{} // release for GC
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.items) && q.less(l, min) {
			min = l
		}
		if r < len(q.items) && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
	return top.v, top.attained, true
}

// View is what a Balancer may observe about worker load — the
// dispatcher-visible statistics of §4 and nothing else (the policies
// are blind: no service times, no job types).
type View interface {
	// Workers returns the number of worker cores.
	Workers() int
	// Load returns, indexed by worker, the number of unfinished jobs
	// assigned to each worker as recovered by the dispatcher's counters,
	// and the number of quanta each worker has serviced for its
	// *current* jobs, the statistic behind MSQ tie-breaking. One call
	// hands over the whole view, so a balancer scans plain slices
	// instead of making two interface calls per worker. The slices are
	// the view's own storage: read-only, and valid until its next Load.
	Load() (lens []int, quanta []int64)
}

// Balancer selects the worker that should receive an incoming job.
type Balancer interface {
	Pick(v View) int
	Name() string
}

// JSQ is join-the-shortest-queue load balancing — TQ's dispatcher
// policy. Workers tied on queue length are separated by the paper's
// Maximum-Serviced-Quanta heuristic (§3.2): pick the one whose current
// jobs have received the most quanta, expecting that core to have the
// smallest remaining work; remaining ties resolve to the lowest worker
// index (deterministic). The zero value is ready to use.
type JSQ struct {
	// RandomTie, when set, replaces MSQ: ties break uniformly at random
	// — the "naive" policy the paper compares MSQ against (Figure 4).
	RandomTie *rng.Rand
	// scratch is RandomTie's candidate list, reused between picks.
	scratch []int
}

// Pick implements Balancer.
func (b *JSQ) Pick(v View) int {
	lens, quanta := v.Load()
	if b.RandomTie == nil {
		// MSQ orders workers by (shortest queue, most quanta, lowest
		// index), so one pass with a strict comparison finds the pick.
		best := 0
		for w := 1; w < len(lens); w++ {
			if lens[w] < lens[best] || lens[w] == lens[best] && quanta[w] > quanta[best] {
				best = w
			}
		}
		return best
	}
	// The random draw is over the tied workers only, and only when there
	// is a tie, so it needs them listed first.
	minLen := lens[0]
	b.scratch = append(b.scratch[:0], 0)
	for w := 1; w < len(lens); w++ {
		switch l := lens[w]; {
		case l < minLen:
			minLen = l
			b.scratch = append(b.scratch[:0], w)
		case l == minLen:
			b.scratch = append(b.scratch, w)
		}
	}
	if len(b.scratch) == 1 {
		return b.scratch[0]
	}
	return b.scratch[b.RandomTie.Intn(len(b.scratch))]
}

// Name implements Balancer.
func (b *JSQ) Name() string {
	if b.RandomTie != nil {
		return "jsq+random-tie"
	}
	return "jsq+msq"
}

// PowerOfTwo samples two distinct workers uniformly and assigns to the
// shorter queue (the TQ-POWER-TWO variant of §5.4).
type PowerOfTwo struct{ R *rng.Rand }

// Pick implements Balancer.
func (b PowerOfTwo) Pick(v View) int {
	n := v.Workers()
	if n == 1 {
		return 0
	}
	a := b.R.Intn(n)
	c := b.R.Intn(n - 1)
	if c >= a {
		c++
	}
	if lens, _ := v.Load(); lens[c] < lens[a] {
		return c
	}
	return a
}

// Name implements Balancer.
func (PowerOfTwo) Name() string { return "power-of-two" }

// Random assigns uniformly at random (the TQ-RAND variant of §5.4).
type Random struct{ R *rng.Rand }

// Pick implements Balancer.
func (b Random) Pick(v View) int { return b.R.Intn(v.Workers()) }

// Name implements Balancer.
func (Random) Name() string { return "random" }

// RSS steers by hashing a flow key onto a worker, modelling Caladan's
// NIC receive-side scaling (§5.1). The paper's open-loop client sends
// each request on its own flow, so Steer is called with the request ID.
type RSS struct{}

// Steer maps a flow key to a worker index in [0, workers).
func (RSS) Steer(key uint64, workers int) int {
	// SplitMix64 finalizer: full-avalanche 64-bit mix.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(workers))
}

// LoadTracker is the dispatcher-side bookkeeping behind JSQ (§4): it
// counts jobs assigned to each worker and recovers each worker's
// finished jobs from a wrapping counter via delta reads, so the running
// difference is the worker's unfinished-job count. It also caches the
// last-read serviced-quanta statistic for MSQ.
type LoadTracker struct {
	lens    []int // assigned minus finished, kept current for Load
	lastRaw []uint64
	quanta  []int64
	width   uint
}

// NewLoadTracker returns a tracker for n workers whose finished-job
// counters wrap at 2^width.
func NewLoadTracker(n int, width uint) *LoadTracker {
	if width < 1 || width > 64 {
		panic("core: counter width out of range")
	}
	return &LoadTracker{
		lens:    make([]int, n),
		lastRaw: make([]uint64, n),
		quanta:  make([]int64, n),
		width:   width,
	}
}

// Assign records that one job was forwarded to worker w.
func (lt *LoadTracker) Assign(w int) { lt.lens[w]++ }

// ObserveFinished incorporates a raw read of worker w's wrapping
// finished-jobs counter.
func (lt *LoadTracker) ObserveFinished(w int, raw uint64) {
	delta := raw - lt.lastRaw[w]
	if lt.width < 64 {
		delta &= uint64(1)<<lt.width - 1
	}
	lt.lens[w] -= int(delta)
	lt.lastRaw[w] = raw
}

// ObserveQuanta records the latest serviced-quanta statistic read from
// worker w.
func (lt *LoadTracker) ObserveQuanta(w int, quanta int64) { lt.quanta[w] = quanta }

// Workers implements View.
func (lt *LoadTracker) Workers() int { return len(lt.lens) }

// Load implements View.
func (lt *LoadTracker) Load() ([]int, []int64) { return lt.lens, lt.quanta }

var _ View = (*LoadTracker)(nil)
