package sim

import "time"

// This file is the engine's benchmark surface, consumed by
// benchmark/: one standard churn workload, runnable against the
// Engine and against the plain 4-ary heap alone. The heap row is
// frozen code, so it doubles as the benchmark's host calibration.

// churnDelay derives the i-th reschedule delay of the standard churn
// workload: uniform in [1, 1000]ns from a splitmix64 stream, so both
// queue implementations see the identical schedule without the engine
// depending on the rng package.
func churnDelay(state *uint64) Time {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return Time(z%1000 + 1)
}

// EngineChurn runs the standard churn workload — depth self-renewing
// events with uniform 1..1000ns reschedule delays, so every event lands
// in the near ring — for n events on a fresh Engine and returns the
// wall-clock time of the measured run loop. The machine models run far
// shallower than the depths this is usually asked for (a dozen events
// in flight, not a thousand); it bounds the queue's cost from the deep
// side.
func EngineChurn(depth, n int, seed uint64) time.Duration {
	e := New()
	state := seed
	remaining := n
	var fn func()
	fn = func() {
		remaining--
		if remaining == 0 {
			e.Halt()
			return
		}
		e.After(churnDelay(&state), fn)
	}
	for i := 0; i < depth; i++ {
		e.After(churnDelay(&state), fn)
	}
	start := time.Now() //simvet:ignore host wall-clock benchmark timing, not sim state
	e.Run()
	return time.Since(start) //simvet:ignore host wall-clock benchmark timing, not sim state
}

// HeapChurn is EngineChurn against the plain 4-ary heap: the same
// delay stream and live depth, driven through the equivalent pop →
// advance clock → run callback loop.
func HeapChurn(depth, n int, seed uint64) time.Duration {
	var (
		h     eventHeap
		now   Time
		seq   uint64
		state = seed
	)
	push := func(fn func()) {
		seq++
		h.push(event{at: now + churnDelay(&state), seq: seq, fn: fn})
	}
	var fn func()
	fn = func() { push(fn) }
	for i := 0; i < depth; i++ {
		push(fn)
	}
	start := time.Now() //simvet:ignore host wall-clock benchmark timing, not sim state
	for i := 0; i < n; i++ {
		ev := h.pop()
		now = ev.at
		ev.fn()
	}
	return time.Since(start) //simvet:ignore host wall-clock benchmark timing, not sim state
}
