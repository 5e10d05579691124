package obs

import "sync"

// Ring is the zero-allocation bounded recorder: storage is one slice
// allocated at construction (or lazily, once, for the zero value) and
// Emit never allocates afterwards. When the capacity is exhausted
// further events are discarded and counted, so a capped recording is
// a strict prefix of the run's timeline: every recorded event is real, no recorded transition is
// fabricated, and Truncated tells a complete timeline from a prefix.
//
// Ring is single-writer: the simulator's event loop, or one worker
// goroutine of the live runtime. Wrap it in Locked for concurrent
// writers, or use Sharded for one ring per writer.
type Ring struct {
	events    []Event
	discarded int
}

// DefaultCap is the capacity a zero-value Ring allocates on first
// Emit: 1<<20 events (≈24MB), enough for tens of simulated
// milliseconds of a 16-core machine.
const DefaultCap = 1 << 20

// NewRing returns a recorder holding at most capacity events
// (capacity <= 0 means DefaultCap). The one allocation happens here.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Ring{events: make([]Event, 0, capacity)}
}

// Emit records e, or counts it as discarded once the ring is full.
//
//simvet:hotpath
func (r *Ring) Emit(e Event) {
	if cap(r.events) == 0 {
		r.events = make([]Event, 0, DefaultCap)
	}
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
		return
	}
	r.discarded++
}

// Events returns the recorded events in emission order. The slice is
// owned by the ring and must not be modified.
func (r *Ring) Events() []Event { return r.events }

// Len reports the number of recorded events.
func (r *Ring) Len() int { return len(r.events) }

// Truncated reports whether the cap discarded any events — the
// recording is then a strict prefix of the timeline, not all of it.
func (r *Ring) Truncated() bool { return r.discarded > 0 }

// Discarded returns how many events the cap discarded.
func (r *Ring) Discarded() int { return r.discarded }

// Reset discards all recorded events but keeps the storage, so a ring
// can be reused across runs without reallocating.
func (r *Ring) Reset() {
	r.events = r.events[:0]
	r.discarded = 0
}

// Locked wraps a Ring with a mutex for multi-goroutine writers (the
// live load generator, TrySubmit drop paths). The zero value is ready
// to use with DefaultCap.
type Locked struct {
	mu   sync.Mutex
	ring Ring
}

// NewLocked returns a concurrent recorder with the given capacity
// (<= 0 means DefaultCap).
func NewLocked(capacity int) *Locked {
	return &Locked{ring: *NewRing(capacity)}
}

// Emit records e under the lock.
//
//simvet:hotpath
func (l *Locked) Emit(e Event) {
	l.mu.Lock()
	l.ring.Emit(e)
	l.mu.Unlock()
}

// Events returns a snapshot copy of the recorded events.
func (l *Locked) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.ring.events))
	copy(out, l.ring.events)
	return out
}

// Len reports the number of recorded events.
func (l *Locked) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Truncated reports whether any events were discarded.
func (l *Locked) Truncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Truncated()
}

// Discarded returns how many events the cap discarded — like Ring, a
// capped concurrent recording must report its drops, or a truncated
// timeline would read as a complete one.
func (l *Locked) Discarded() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Discarded()
}

// Reset discards all recorded events but keeps the storage, so the
// recorder can be reused across runs without reallocating.
func (l *Locked) Reset() {
	l.mu.Lock()
	l.ring.Reset()
	l.mu.Unlock()
}

// Sharded is a set of single-writer rings — one per emitting goroutine
// — merged into a single time-ordered stream at read time. The live
// runtime gives each worker its own shard so recording stays
// allocation- and contention-free on the scheduling path.
type Sharded struct {
	shards []*Ring
}

// NewSharded returns n shards of the given per-shard capacity
// (<= 0 means DefaultCap per shard).
func NewSharded(n, capacity int) *Sharded {
	if n <= 0 {
		panic("obs: Sharded needs at least one shard")
	}
	s := &Sharded{shards: make([]*Ring, n)}
	for i := range s.shards {
		s.shards[i] = NewRing(capacity)
	}
	return s
}

// Shard returns shard i's ring. Each shard must have at most one
// writing goroutine at a time.
func (s *Sharded) Shard(i int) *Ring { return s.shards[i] }

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Truncated reports whether any shard discarded events.
func (s *Sharded) Truncated() bool {
	for _, r := range s.shards {
		if r.Truncated() {
			return true
		}
	}
	return false
}

// Events merges all shards into one stream sorted by time (stable
// across shards: ties preserve each shard's emission order and order
// equal-time events from lower-indexed shards first). Call it only
// after the writers have stopped.
//
// Each shard is already in emission order — a single writer with
// non-decreasing timestamps — so this is a k-way merge, O(n log k),
// not a sort of the concatenation: the previous O(n log n)
// sort.SliceStable re-sorted n events that were already k sorted runs.
func (s *Sharded) Events() []Event {
	var n int
	for _, r := range s.shards {
		n += r.Len()
	}
	out := make([]Event, 0, n)
	m := mergeState{shards: s.shards, heads: make([]int, len(s.shards))}
	for i, r := range s.shards {
		if r.Len() > 0 {
			m.push(i)
		}
	}
	for len(m.heap) > 0 {
		i := m.heap[0]
		out = append(out, m.shards[i].events[m.heads[i]])
		m.heads[i]++
		if m.heads[i] == m.shards[i].Len() {
			m.popTop()
		} else {
			m.siftDown(0)
		}
	}
	return out
}

// mergeState is the k-way merge's cursor heap: shard indices ordered
// by (head event time, shard index), the tie-break that reproduces a
// stable sort over the shards concatenated in index order.
type mergeState struct {
	shards []*Ring
	heads  []int
	heap   []int
}

func (m *mergeState) less(a, b int) bool {
	ta := m.shards[a].events[m.heads[a]].T
	tb := m.shards[b].events[m.heads[b]].T
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (m *mergeState) push(shard int) {
	m.heap = append(m.heap, shard)
	for i := len(m.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[parent]) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
}

func (m *mergeState) popTop() {
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	if last > 0 {
		m.siftDown(0)
	}
}

func (m *mergeState) siftDown(i int) {
	for {
		left := 2*i + 1
		if left >= len(m.heap) {
			return
		}
		least := left
		if right := left + 1; right < len(m.heap) && m.less(m.heap[right], m.heap[left]) {
			least = right
		}
		if !m.less(m.heap[least], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}
