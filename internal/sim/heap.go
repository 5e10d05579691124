package sim

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). It
// has three jobs:
//
//   - the far tier of the engine's queue (wheel.go): events due at or
//     beyond the near ring's window wait here: whole-job completion
//     times, a handful on most machines, hundreds of stale ones on
//     Shinjuku and the oracle;
//   - the differential reference: the wheel/heap fuzz tests drive the
//     engine and one plain eventHeap with identical (at, seq) schedules
//     and require identical pop order, so any ordering bug in the ring,
//     the tier boundary or the merge is caught against this;
//   - the benchmark's host-calibration row: HeapChurn (bench.go) runs
//     the standard churn on this heap alone, and because push, pop and
//     less are left exactly as they were, `sim.heap_ns_per_event`
//     measures the host and nothing a change to the engine can move.
//
// The ordering contract is the engine's: (at, seq) ascending, so
// events at the same instant pop in scheduling order. 4-ary because
// that measured faster than binary for deep queues: more comparisons
// per level, half the levels.
type eventHeap struct{ heap []event }

func (h *eventHeap) len() int { return len(h.heap) }

// min returns the earliest queued timestamp; the queue must be
// non-empty.
func (h *eventHeap) min() Time { return h.heap[0].at }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.heap[i], &h.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	h.heap = append(h.heap, ev)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	// Zero the vacated tail slot: before PR 6 it kept the moved
	// event's fn closure (and everything the closure captured)
	// reachable until a later push happened to overwrite it.
	h.heap[last] = event{}
	h.heap = h.heap[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h.heap) {
			break
		}
		min := first
		end := first + 4
		if end > len(h.heap) {
			end = len(h.heap)
		}
		for c := first + 1; c < end; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h.heap[i], h.heap[min] = h.heap[min], h.heap[i]
		i = min
	}
	return top
}
