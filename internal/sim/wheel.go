package sim

import "math/bits"

// The event queue has two tiers, fitted to the traffic the machine
// models actually generate: about a dozen events in flight (a few
// hundred on an overloaded Shinjuku), one every ≈70 ns, almost all of
// them due within a few microseconds.
//
//   - The near ring holds every event due inside the window
//     [cur, cur+ringSlots) — one slot per nanosecond, slot = at & mask,
//     so a slot only ever holds events of a single timestamp. The
//     window slides with the clock: nothing is re-filed when cur
//     advances, a slot simply becomes valid for the timestamp one ring
//     length later. Each slot is an intrusive FIFO list of int32
//     indices into one pooled []node with a LIFO freelist, so the
//     handful of live nodes are the same few cache lines over and over.
//     Push is one list append and pop scans an occupancy bitmap
//     circularly from cur: O(1) with no sorting at all.
//   - The far tier is the 4-ary heap of heap.go, for whatever is due
//     at or beyond the window. What the models schedule that far ahead
//     is service-time completions: one per core on the
//     run-to-completion machines, so the heap is a handful deep; on
//     Shinjuku and the oracle, whose preempted jobs leave stale
//     completion timers behind, hundreds deep — but there only 6–20 %
//     of pushes go far (EXPERIMENTS.md has the measured table).
//
// Pop is a two-way merge of the ring's next slot and the heap's
// minimum, ties going to the heap. That keeps the engine's contract —
// events pop in exactly (at, seq) order — without ever moving an event
// between tiers:
//
//   - within a slot, list order is push order, which is seq order;
//   - an event is filed far only when at >= cur+ringSlots at its push,
//     near only when at < cur+ringSlots, and cur never decreases, so
//     for one timestamp every far push precedes every near push: the
//     heap's events have the smaller seqs and must pop first.
//
// This is the degenerate case the PIFO paper names (PAPERS.md): pushes
// that arrive in rank order need no sorting, only the out-of-order
// remainder does. The wheel/heap differential fuzz (wheel_test.go)
// checks the equivalence on random schedule/drain interleavings that
// straddle the window boundary, and the golden fixtures pin it for
// every machine model's full trajectory.
const (
	// ringBits sizes the near window at 8192 ns. It is a constant, not
	// an option, chosen from the horizons the models schedule at: TQ's
	// 2 µs quantum plus yield, Shinjuku's 5 µs preemption timer, 70 ns
	// dispatcher hand-offs and the inter-arrival gap at every Figure 7
	// rate all land near; only whole-job completions (5.7–500 µs) land
	// far. A smaller window would push the 5 µs timers into the heap; a
	// larger one only lengthens the bitmap scan across idle gaps.
	ringBits  = 13
	ringSlots = 1 << ringBits
	ringMask  = ringSlots - 1
	ringWords = ringSlots / 64

	// poolShrinkCap is the shrink policy's threshold: when the ring
	// drains and the node pool has grown beyond this many nodes, the
	// pool is released to the garbage collector instead of being kept
	// for reuse, so one pathological burst (say, a megabatch scheduled
	// at one instant) does not pin its high-water storage for the rest
	// of the run. Steady-state pools stay far below it and keep their
	// storage, so the hot path settles to zero allocations.
	poolShrinkCap = 1024
)

// node is one near event. Its timestamp is implied by the slot it is
// linked into and its seq by its position in the list, so neither is
// stored. Index 0 is reserved as the nil link.
type node struct {
	fn   func()
	next int32
}

// ringSlot is one nanosecond's FIFO list. head and tail are meaningful
// only while the slot's occupancy bit is set, which is what lets the
// zero value be an empty ring.
type ringSlot struct{ head, tail int32 }

// timingWheel is the queue itself. The zero value is ready to use,
// which keeps Engine's documented zero-value contract.
type timingWheel struct {
	// cur is the timestamp of the last popped event: a lower bound on
	// every queued event and the base of the near window. Only pop
	// advances it, so it may lag Engine.now after RunUntil
	// fast-forwards the clock across an empty stretch; pushes that land
	// beyond the lagging window are simply filed far.
	cur  Time
	near int // events in the ring

	nodes []node
	free  int32 // head of the LIFO freelist through node.next; 0 = empty

	far eventHeap

	occupied [ringWords]uint64
	slots    [ringSlots]ringSlot
}

// len reports the number of queued events.
func (w *timingWheel) len() int { return w.near + w.far.len() }

// push files ev by its distance from the clock. The caller guarantees
// ev.at >= cur (Engine.At rejects the past).
//
//simvet:hotpath
func (w *timingWheel) push(ev event) {
	if uint64(ev.at-w.cur) >= ringSlots {
		w.far.push(ev)
		return
	}
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, node{}) // index 0: the nil link
		}
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, node{})
	}
	w.nodes[n] = node{fn: ev.fn}
	s := int(ev.at) & ringMask
	slot := &w.slots[s]
	if bit := uint64(1) << (uint(s) & 63); w.occupied[s>>6]&bit == 0 {
		w.occupied[s>>6] |= bit
		slot.head = n
	} else {
		w.nodes[slot.tail].next = n
	}
	slot.tail = n
	w.near++
}

// nextNear returns the timestamp of the ring's earliest event; the
// ring must be non-empty. Every ring event lies in [cur, cur+ringSlots),
// so the first occupied slot at or circularly after cur's is the
// earliest. The first word is masked to the bits at and above cur's
// slot; coming back round to it unmasked picks up the bits below, which
// are the window's last slots.
//
//simvet:hotpath
func (w *timingWheel) nextNear() Time {
	from := int(w.cur) & ringMask
	i := from >> 6
	word := w.occupied[i] &^ (1<<(uint(from)&63) - 1)
	for word == 0 {
		i = (i + 1) & (ringWords - 1)
		word = w.occupied[i]
	}
	s := i<<6 | bits.TrailingZeros64(word)
	return w.cur + Time((s-from)&ringMask)
}

// peek returns the earliest queued event's timestamp and whether the
// far tier holds it, without changing the queue, which must be
// non-empty. This is the two-way merge, and the one place the tie rule
// lives: the heap's minimum wins whenever it is due no later than the
// ring's next slot.
//
//simvet:hotpath
func (w *timingWheel) peek() (t Time, far bool) {
	if w.near == 0 {
		return w.far.min(), true
	}
	t = w.nextNear()
	if w.far.len() > 0 && w.far.min() <= t {
		return w.far.min(), true
	}
	return t, false
}

// pop removes and returns the earliest queued event. One that came
// from the ring carries no seq.
//
//simvet:hotpath
func (w *timingWheel) pop() event {
	if w.len() == 0 {
		panic("sim: pop from an empty event queue")
	}
	t, far := w.peek()
	w.cur = t
	if far {
		return w.far.pop()
	}
	s := int(t) & ringMask
	slot := &w.slots[s]
	n := slot.head
	nd := &w.nodes[n]
	ev := event{at: t, fn: nd.fn}
	if nd.next == 0 {
		w.occupied[s>>6] &^= 1 << (uint(s) & 63)
	} else {
		slot.head = nd.next
	}
	// Recycle the node, dropping its closure: the pool would otherwise
	// keep each fired callback (and everything it captured) reachable
	// until the node's next use.
	*nd = node{next: w.free}
	w.free = n
	w.near--
	if w.near == 0 && len(w.nodes) > poolShrinkCap {
		w.nodes, w.free = nil, 0 // shrink policy: release burst-sized storage
	}
	return ev
}
