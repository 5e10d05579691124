// Package sim is a discrete-event simulation engine with an int64
// nanosecond virtual clock. It is the substrate under every scheduling
// experiment in this repository: the Tiny Quanta machine models, the
// Shinjuku and Caladan baselines, and the motivation simulations of §2.
//
// Events scheduled for the same instant fire in scheduling order
// (FIFO), which keeps runs deterministic: the same seed always yields
// the same trajectory.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, in ns.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Micros converts a duration in (possibly fractional) microseconds to a
// Time, rounding to the nearest nanosecond with ties away from zero.
// Negative durations are legal (time deltas can be negative); the
// conversion must not round them toward zero, which `Time(ns + 0.5)`
// alone would.
func Micros(us float64) Time {
	ns := us * 1000
	if ns < 0 {
		return Time(ns - 0.5)
	}
	return Time(ns + 0.5)
}

// Seconds converts t to fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders t with an adaptive unit — plain ns below 1µs, then
// fractional µs, ms, or s — so timestamps in reports and trace tours
// read naturally at every scale ("740ns", "2.07µs", "1.5ms").
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return trimZeros(fmt.Sprintf("%.3f", t.Micros())) + "µs"
	case abs < Second:
		return trimZeros(fmt.Sprintf("%.3f", float64(t)/float64(Millisecond))) + "ms"
	default:
		return trimZeros(fmt.Sprintf("%.3f", t.Seconds())) + "s"
	}
}

// trimZeros drops a fixed-point literal's trailing fractional zeros.
func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// event is a scheduled callback. seq breaks ties so that events at the
// same instant run in the order they were scheduled.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// Engine runs events in timestamp order. The zero value is ready to
// use. The queue behind it is a sliding one-nanosecond calendar ring
// with a heap for the far future (wheel.go); the ordering contract —
// (at, seq), so same-instant events fire in scheduling order — is
// independent of the queue implementation and pinned by differential
// tests against a plain heap (heap.go).
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	halted   bool
	wheel    timingWheel
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Reset returns the engine to New's state but keeps the queue's storage
// (64 KB ring, node pool, far heap) for the next run, with the dropped
// events' closures cleared; a slot is read only while its bit is set.
func (e *Engine) Reset() {
	w := &e.wheel
	clear(w.nodes)
	clear(w.far.heap)
	w.nodes, w.free, w.far.heap = w.nodes[:0], 0, w.far.heap[:0]
	w.occupied, w.cur, w.near = [ringWords]uint64{}, 0, 0
	e.now, e.seq, e.executed, e.halted = 0, 0, 0, false
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a model bug.
func (e *Engine) At(at Time, fn func()) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.wheel.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Halt stops the run loop after the current event returns. Pending
// events remain queued. The halt is sticky until a run loop consumes
// it: calling Halt with no loop active makes the next Run or RunUntil
// return immediately, executing nothing and (for RunUntil) leaving the
// clock where it was. Each Run/RunUntil call consumes at most one
// halt, so the call after that proceeds normally. (Before PR 6 the run
// loops reset the flag on entry, silently discarding a pre-run Halt.)
func (e *Engine) Halt() { e.halted = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.wheel.len() }

// Executed reports the number of events run so far — the natural unit
// of simulation work, used by the sweep progress layer to report
// sim-events/second.
func (e *Engine) Executed() uint64 { return e.executed }

// Run executes events until the queue is empty or Halt is called. It
// returns the final virtual time.
func (e *Engine) Run() Time {
	for e.wheel.len() > 0 && !e.halted {
		ev := e.wheel.pop()
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	e.halted = false // consume the halt, see Halt
	return e.now
}

// RunUntil executes events with timestamps <= deadline (or until Halt),
// then advances the clock to the deadline. Events beyond the deadline
// stay queued; a halted RunUntil leaves the clock at the last executed
// event rather than advancing it to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.halted && e.wheel.len() > 0 {
		if t, _ := e.wheel.peek(); t > deadline {
			break
		}
		ev := e.wheel.pop()
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	e.halted = false // consume the halt, see Halt
	return e.now
}

// Ticker invokes fn every period ns starting at the next period
// boundary, until Stop is called or the engine drains. It models the
// polling loops in the system (e.g. the dispatcher reading worker
// counters).
type Ticker struct {
	e       *Engine
	period  Time
	stopped bool
}

// NewTicker starts a ticker on e with the given period (> 0).
func NewTicker(e *Engine, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{e: e, period: period}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
	return t
}

// Stop cancels future ticks.
func (t *Ticker) Stop() { t.stopped = true }
