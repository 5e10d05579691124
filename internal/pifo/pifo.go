package pifo

import "fmt"

// Queue is the PIFO mechanism: a binary min-heap keyed by (rank, seq).
// Push inserts an element with a caller-computed rank; Pop removes the
// element with the smallest rank, breaking ties in push order. The
// backing array is reused across operations, so a queue that has
// reached its working depth never allocates again (the steady-state
// regime the simulator's worker queues live in).
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

type item[T any] struct {
	rank int64
	seq  uint64
	v    T
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push inserts v with the given rank.
//
//simvet:hotpath
func (q *Queue[T]) Push(v T, rank int64) {
	q.seq++
	q.items = append(q.items, item[T]{rank: rank, seq: q.seq, v: v})
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

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// Pop removes and returns the minimum-rank element and its rank. The
// last result is false if the queue is empty.
//
//simvet:hotpath
func (q *Queue[T]) Pop() (T, int64, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, 0, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = item[T]{} // release for GC
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
	return top.v, top.rank, true
}

// Reset empties the queue and restarts its tie-break sequence: a zero
// queue in all but the backing array, which it keeps.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items, q.seq = q.items[:0], 0
}

// Peek returns the minimum-rank element and its rank without removing
// it. The last result is false if the queue is empty.
func (q *Queue[T]) Peek() (T, int64, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, 0, false
	}
	return q.items[0].v, q.items[0].rank, true
}

// Discipline selects a rank function. The zero value is RR.
type Discipline int

// The scheduling disciplines, in registry order (Names lists them
// under these indices).
const (
	// RR ranks by push time: with monotonic pushes the queue is plain
	// FIFO over push order — round-robin processor sharing when the
	// pusher re-enqueues preempted work at its current time.
	RR Discipline = iota
	// FCFS ranks by arrival time: first-come-first-served regardless
	// of when the job reaches the queue.
	FCFS
	// SRPT ranks by remaining service — shortest remaining processing
	// time, the clairvoyant mean-optimal policy (SJF for
	// run-to-completion queues, where remaining equals total demand).
	SRPT
	// EDF ranks by deadline (arrival plus the class SLO target) —
	// earliest deadline first. With no SLO configured the deadline
	// degenerates to the arrival instant, i.e. FCFS.
	EDF
	// LAS ranks by attained service — least attained service first,
	// the blind approximation of SRPT.
	LAS
	// PrioAge ranks by arrival time boosted per priority level:
	// rank = arrival + priority*AgeBoost. Priority 0 is served ahead
	// of priority 1 until the latter has aged AgeBoost — strict
	// priority with starvation bounded by age.
	PrioAge
)

// AgeBoost is PrioAge's per-level rank penalty in nanoseconds: a job
// one priority level down is served as if it had arrived 100µs later,
// so lower classes lag by at most that age before winning ties.
const AgeBoost = 100_000

// RankInputs is the per-element state a rank function may read, all in
// the simulator's nanosecond integer domain. Callers fill the fields
// their discipline set needs; unused fields may stay zero.
type RankInputs struct {
	// Now is the push instant.
	Now int64
	// Arrival is the element's arrival instant.
	Arrival int64
	// Remaining is the true remaining service demand — reading it
	// makes a discipline clairvoyant (SRPT).
	Remaining int64
	// Attained is the service received so far.
	Attained int64
	// Deadline is the absolute SLO deadline (arrival + target).
	Deadline int64
	// Priority is the element's priority level, 0 highest.
	Priority int64
}

// RankFn maps per-element state to a rank — a scheduling policy as a
// value.
type RankFn func(RankInputs) int64

// rankFns is the policy table: one rank function per Discipline,
// indexed by it. The disciplines are data, not code paths — adding one
// is a table row plus a name.
var rankFns = [...]RankFn{
	RR:      func(in RankInputs) int64 { return in.Now },
	FCFS:    func(in RankInputs) int64 { return in.Arrival },
	SRPT:    func(in RankInputs) int64 { return in.Remaining },
	EDF:     func(in RankInputs) int64 { return in.Deadline },
	LAS:     func(in RankInputs) int64 { return in.Attained },
	PrioAge: func(in RankInputs) int64 { return in.Arrival + in.Priority*AgeBoost },
}

// names holds the stable flag-facing discipline names, indexed like
// rankFns.
var names = [...]string{
	RR:      "rr",
	FCFS:    "fcfs",
	SRPT:    "srpt",
	EDF:     "edf",
	LAS:     "las",
	PrioAge: "prio-age",
}

// Rank computes the discipline's rank for the given inputs.
//
//simvet:hotpath
func (d Discipline) Rank(in RankInputs) int64 { return rankFns[d](in) }

// String returns the discipline's stable name.
func (d Discipline) String() string {
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("pifo.Discipline(%d)", int(d))
	}
	return names[d]
}

// Names lists every discipline name in Discipline order.
func Names() []string {
	out := make([]string, len(names))
	copy(out, names[:])
	return out
}

// Parse resolves a discipline name ("rr", "fcfs", "srpt", "edf",
// "las", "prio-age"; "sjf" is accepted as an alias for srpt).
func Parse(name string) (Discipline, error) {
	if name == "sjf" {
		return SRPT, nil
	}
	for d, n := range names {
		if n == name {
			return Discipline(d), nil
		}
	}
	return 0, fmt.Errorf("pifo: unknown discipline %q (known: rr, fcfs, srpt, edf, las, prio-age)", name)
}

// Churn exercises a standing queue of the given depth with n pop/push
// pairs under pseudo-random ranks — the benchmark body behind the
// pifo/push-pop matrix entry. It returns a checksum so the work cannot
// be optimized away.
func Churn(depth, n int, seed uint64) int64 {
	if depth <= 0 || n <= 0 {
		panic("pifo: Churn needs positive depth and n")
	}
	var q Queue[int]
	s := seed
	for i := 0; i < depth; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		q.Push(i, int64(s>>33))
	}
	var sum int64
	for i := 0; i < n; i++ {
		v, _, _ := q.Pop()
		sum += int64(v)
		s = s*6364136223846793005 + 1442695040888963407
		q.Push(v, int64(s>>33))
	}
	return sum
}
