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
// goroutine of the live runtime, which gives each worker its own Ring
// and merges them at read time (tqrt.TraceEvents: concatenate, then
// SortByTime). Wrap it in Locked for concurrent writers.
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
