package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

// --- Differential testing: ring + far heap vs a plain 4-ary heap ----
//
// The engine's queue works under a strict contract: identical
// (at, seq) pop order to one heap holding everything, for every
// schedule. These tests drive both with the same random interleavings
// of scheduling, RunUntil-style bounded drains and full drains,
// comparing every fired event and the pending count after every step.

// differential mirrors one Engine-shaped trajectory onto both queues.
type differential struct {
	t     *testing.T
	e     *Engine
	r     *rng.Rand
	h     eventHeap
	hseq  uint64
	fired []uint64 // seqs fired by engine callbacks, in order
	// aim is the last timestamp scheduled at the window boundary, kept
	// so a later push can hit the same instant from the near side.
	aim Time
}

func newDifferential(t *testing.T, seed uint64) *differential {
	return &differential{t: t, e: New(), r: rng.New(seed)}
}

// schedule registers one event at the given delay from the engine
// clock in both queues; the engine-side callback records the event's
// seq so pop order is observable.
func (d *differential) schedule(delay Time) {
	at := d.e.Now() + delay
	d.hseq++
	seq := d.hseq
	d.e.At(at, func() { d.fired = append(d.fired, seq) })
	d.h.push(event{at: at, seq: seq, fn: nil})
	if d.e.seq != d.hseq {
		d.t.Fatalf("engine seq %d diverged from mirror %d", d.e.seq, d.hseq)
	}
}

// runUntil drains both queues through the deadline and compares the
// fired sequences event by event.
func (d *differential) runUntil(deadline Time) {
	d.fired = d.fired[:0]
	d.e.RunUntil(deadline)
	var want []uint64
	for d.h.len() > 0 && d.h.min() <= deadline {
		want = append(want, d.h.pop().seq)
	}
	d.compare(want)
}

// drain empties both queues and compares the full remaining order.
func (d *differential) drain() {
	d.fired = d.fired[:0]
	d.e.Run()
	var want []uint64
	for d.h.len() > 0 {
		want = append(want, d.h.pop().seq)
	}
	d.compare(want)
}

func (d *differential) compare(want []uint64) {
	d.t.Helper()
	if len(d.fired) != len(want) {
		d.t.Fatalf("wheel fired %d events, heap %d (wheel %v, heap %v)",
			len(d.fired), len(want), d.fired, want)
	}
	for i := range want {
		if d.fired[i] != want[i] {
			d.t.Fatalf("pop %d: wheel fired seq %d, heap seq %d", i, d.fired[i], want[i])
		}
	}
	if d.e.Pending() != d.h.len() {
		d.t.Fatalf("pending mismatch: wheel %d, heap %d", d.e.Pending(), d.h.len())
	}
}

// delayFor maps a byte to a delay covering both tiers and the boundary
// between them, with ties made frequent so the seq tie-break is
// exercised — within a slot, and across the tiers.
func (d *differential) delayFor(b byte) Time {
	r := d.r
	switch b % 8 {
	case 0:
		return 0 // same instant: pure seq ordering
	case 1:
		return Time(r.Uint64n(4)) // dense ties in adjacent slots
	case 2:
		return Time(r.Uint64n(ringSlots)) // anywhere in the near window
	case 3:
		// Straddle the boundary: W-1 is the ring's last slot, W and W+1
		// are far (relative to the engine clock; the wheel clock may lag
		// it after a RunUntil, which files all three far).
		delay := ringSlots - 1 + Time(r.Uint64n(3))
		d.aim = d.e.Now() + delay
		return delay
	case 4:
		// The tie rule: hit the last boundary timestamp again. Once the
		// clock has advanced this is a near push of an instant that
		// already has events in the far tier, which must pop first.
		if d.aim >= d.e.Now() {
			return d.aim - d.e.Now()
		}
		return Time(r.Uint64n(4 * ringSlots)) // far events coming due among near ones
	case 5:
		return Time(r.Uint64n(1 << 24)) // far: milliseconds
	case 6:
		return Time(r.Uint64n(1 << 40)) // far: minutes
	default:
		return Time(r.Uint64n(1000) + 1) // churn regime
	}
}

// reset drops everything pending in both queues — first adding a near,
// a far and a same-instant pair, so there is always something of each
// tier to drop — and rewinds both to time zero and seq zero, as a
// recycled machine run resets its engine between runs.
func (d *differential) reset() {
	d.schedule(1)
	d.schedule(4 * ringSlots)
	d.schedule(0)
	d.schedule(0)
	d.e.Reset()
	d.h, d.hseq, d.aim = eventHeap{}, 0, 0
	d.fired = d.fired[:0]
	d.compare(nil)
	if d.e.Now() != 0 || d.e.Executed() != 0 {
		d.t.Fatalf("reset engine at %v having executed %d, want 0 and 0", d.e.Now(), d.e.Executed())
	}
}

// applyOps interprets a byte string as a schedule/drain/reset
// interleaving and checks wheel/heap equivalence after every step.
func applyOps(t *testing.T, ops []byte, seed uint64) {
	d := newDifferential(t, seed)
	for _, op := range ops {
		switch {
		case op < 160: // schedule a burst
			n := int(op%7) + 1
			for i := 0; i < n; i++ {
				d.schedule(d.delayFor(op + byte(i)))
			}
		case op < 200: // bounded drain (RunUntil), then pushes land behind the next event
			d.runUntil(d.e.Now() + d.delayFor(op))
		case op < 220: // zero-width drain: deadline == now
			d.runUntil(d.e.Now())
		case op < 228: // reset mid-schedule
			d.reset()
		default: // full drain
			d.drain()
		}
	}
	d.drain()
}

func TestWheelMatchesHeapRandom(t *testing.T) {
	r := rng.New(0xD1FF)
	for trial := 0; trial < 150; trial++ {
		ops := make([]byte, int(r.Uint64n(60))+4)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		applyOps(t, ops, r.Uint64())
	}
}

// FuzzWheelVsHeap is the same differential check under the fuzzer:
// `go test -fuzz FuzzWheelVsHeap ./internal/sim` explores op strings,
// and the seed corpus keeps the key shapes in every plain `go test`.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{10, 240, 10, 170, 240}, uint64(1))
	f.Add([]byte{0, 0, 0, 230, 159, 159, 201, 240}, uint64(7))
	f.Add([]byte{155, 165, 155, 175, 155, 185, 240}, uint64(42))
	f.Add([]byte{9, 210, 9, 210, 9, 240}, uint64(0xC0FFEE))
	f.Add([]byte{155, 170, 3, 224, 155, 185, 221, 9, 240}, uint64(27))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		applyOps(t, ops, seed)
	})
}

// --- Halt semantics -------------------------------------------------

func TestHaltBeforeRunIsHonored(t *testing.T) {
	e := New()
	ran := false
	e.At(5, func() { ran = true })
	e.Halt()
	if end := e.Run(); end != 0 {
		t.Fatalf("halted Run advanced the clock to %v", end)
	}
	if ran {
		t.Fatal("halted Run executed an event")
	}
	if e.Pending() != 1 {
		t.Fatalf("halted Run consumed the queue: Pending = %d", e.Pending())
	}
	// The halt is consumed: the next Run proceeds normally.
	if end := e.Run(); end != 5 || !ran {
		t.Fatalf("post-halt Run: end=%v ran=%v, want 5 true", end, ran)
	}
}

func TestHaltBeforeRunUntilIsHonored(t *testing.T) {
	e := New()
	ran := false
	e.At(5, func() { ran = true })
	e.Halt()
	if end := e.RunUntil(100); end != 0 {
		t.Fatalf("halted RunUntil advanced the clock to %v", end)
	}
	if ran || e.Pending() != 1 {
		t.Fatalf("halted RunUntil executed work: ran=%v pending=%d", ran, e.Pending())
	}
	if end := e.RunUntil(100); end != 100 || !ran {
		t.Fatalf("post-halt RunUntil: end=%v ran=%v, want 100 true", end, ran)
	}
}

func TestHaltInsideCallbackStillStops(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 || e.Pending() != 7 {
		t.Fatalf("in-callback halt: count=%d pending=%d, want 3/7", count, e.Pending())
	}
	// The halt was consumed by the halted Run: resuming drains the rest.
	e.Run()
	if count != 10 || e.Pending() != 0 {
		t.Fatalf("resume after halt: count=%d pending=%d, want 10/0", count, e.Pending())
	}
}

// --- Closure retention and the shrink policy ------------------------

// retainable is a finalizer-carrying allocation captured by event
// closures; its collection proves the queue dropped the closure.
type retainable struct{ payload [1 << 16]byte }

// scheduleRetainable schedules n events whose closures capture a fresh
// retainable, in its own function so the test frame holds no live
// reference afterwards.
func scheduleRetainable(e *Engine, n int, at Time, freed chan struct{}) {
	p := &retainable{}
	runtime.SetFinalizer(p, func(*retainable) { close(freed) })
	for i := 0; i < n; i++ {
		e.At(at+Time(i%3), func() { _ = p })
	}
}

func waitFreed(t *testing.T, freed chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatalf("%s: drained engine still retains event closures", what)
}

// TestDrainedEngineReleasesClosures is the regression test for the
// event-closure retention bug: popped events' fn closures stayed
// reachable from the queue's backing storage until a later push
// happened to overwrite the slot, pinning everything the closures
// captured. A drained engine must hold no live closures.
func TestDrainedEngineReleasesClosures(t *testing.T) {
	e := New()
	freed := make(chan struct{})
	scheduleRetainable(e, 64, 1000, freed)
	e.Run()
	waitFreed(t, freed, "run-drained engine")
	runtime.KeepAlive(e)
}

// TestFarTierReleasesClosures covers the other tier: events scheduled
// beyond the near window sit in the heap, whose pop must not leave a
// fired closure in its vacated tail entry. Draining through RunUntil
// (peek-then-pop) also exercises peek on a heap-only queue.
func TestFarTierReleasesClosures(t *testing.T) {
	e := New()
	freed := make(chan struct{})
	scheduleRetainable(e, 64, 1<<20, freed)
	if e.wheel.near != 0 {
		t.Fatalf("events at 1<<20 filed near: near=%d", e.wheel.near)
	}
	e.RunUntil(1 << 21)
	waitFreed(t, freed, "far-drained engine")
	runtime.KeepAlive(e)
}

// TestPoppedNodeReleasesClosure pins the pool's half of the contract:
// a popped node drops its fn at once, not when the node is next reused
// or the ring drains — here the ring never drains, a later event keeps
// the pool alive and untouched.
func TestPoppedNodeReleasesClosure(t *testing.T) {
	e := New()
	freed := make(chan struct{})
	scheduleRetainable(e, 64, 1000, freed)
	e.At(5000, func() {})
	e.RunUntil(2000)
	if e.Pending() != 1 || e.wheel.nodes == nil {
		t.Fatalf("want one pending near event on a live pool: pending=%d", e.Pending())
	}
	waitFreed(t, freed, "live pool")
	runtime.KeepAlive(e)
}

// TestResetReleasesClosures: the events a reset drops, near and far,
// must not stay reachable from the storage it keeps.
func TestResetReleasesClosures(t *testing.T) {
	e := New()
	nearFreed, farFreed := make(chan struct{}), make(chan struct{})
	scheduleRetainable(e, 64, 1000, nearFreed)
	scheduleRetainable(e, 64, 1<<20, farFreed)
	e.Reset()
	if cap(e.wheel.nodes) == 0 || cap(e.wheel.far.heap) == 0 {
		t.Fatal("reset released the queue's storage; want it kept for the next run")
	}
	waitFreed(t, nearFreed, "reset engine, near tier")
	waitFreed(t, farFreed, "reset engine, far tier")
	runtime.KeepAlive(e)
}

// TestResetEngineBehavesLikeNew leaves an engine in every state a run
// can end in — events queued in both tiers behind a halted Run and a
// RunUntil, the clock past zero, a halt pending with no loop to consume
// it — resets it, and drives it and a New engine through one script:
// both must fire the same events at the same instants and end in the
// same state, seq included.
func TestResetEngineBehavesLikeNew(t *testing.T) {
	used := New()
	for i := Time(0); i < 8; i++ {
		used.At(100*i, func() {})
		used.At(3*ringSlots+i, func() {})
		used.At(500, func() {})
	}
	used.At(300, used.Halt)
	used.Run() // halts at 300
	used.RunUntil(ringSlots)
	if used.Pending() == 0 || used.wheel.far.len() == 0 {
		t.Fatalf("want events left queued in the far tier, pending %d far %d", used.Pending(), used.wheel.far.len())
	}
	used.Halt()
	used.Reset()

	script := func(e *Engine) []string {
		var log []string
		mark := func(tag string) func() {
			return func() { log = append(log, tag+"@"+e.Now().String()) }
		}
		e.At(0, mark("a"))
		e.At(0, mark("b"))
		e.At(ringSlots+5, mark("far"))
		e.After(70, func() {
			mark("c")()
			e.After(0, mark("d"))
			e.After(2*ringSlots, mark("far2"))
		})
		e.RunUntil(1000)
		e.At(ringSlots+5, mark("tie"))
		e.Run()
		return log
	}
	fresh := New()
	got, want := script(used), script(fresh)
	if !slices.Equal(got, want) {
		t.Fatalf("reset engine fired %v, new engine %v", got, want)
	}
	if used.Now() != fresh.Now() || used.Executed() != fresh.Executed() || used.seq != fresh.seq || used.Pending() != 0 {
		t.Fatalf("reset engine ended at %v/%d events/seq %d, new engine at %v/%d/%d",
			used.Now(), used.Executed(), used.seq, fresh.Now(), fresh.Executed(), fresh.seq)
	}
}

// TestWheelShrinkPolicy checks that a one-off burst does not pin its
// high-water storage: a node pool grown past poolShrinkCap is released
// once the ring drains, while an ordinary pool keeps its (small)
// storage for reuse.
func TestWheelShrinkPolicy(t *testing.T) {
	e := New()
	for i := 0; i < poolShrinkCap*2; i++ {
		e.At(100, func() {})
	}
	e.Run()
	if e.wheel.nodes != nil {
		t.Fatalf("burst pool kept cap %d after drain; want released", cap(e.wheel.nodes))
	}
	for i := 0; i < 16; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if cap(e.wheel.nodes) == 0 {
		t.Fatal("ordinary pool dropped its storage; want it kept for reuse")
	}
	before := cap(e.wheel.nodes)
	for i := 0; i < 16; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if cap(e.wheel.nodes) != before {
		t.Fatalf("second round of 16 events grew the pool %d -> %d; want the freelist reused", before, cap(e.wheel.nodes))
	}
}

// TestPoolReuseAfterShrink makes sure a released pool keeps working:
// the next burst simply reallocates it.
func TestPoolReuseAfterShrink(t *testing.T) {
	e := New()
	for round := 0; round < 3; round++ {
		at := e.Now() + 100
		fired := 0
		for i := 0; i < poolShrinkCap*2; i++ {
			e.At(at, func() { fired++ })
		}
		e.Run()
		if fired != poolShrinkCap*2 {
			t.Fatalf("round %d fired %d events, want %d", round, fired, poolShrinkCap*2)
		}
	}
}

// --- The tier boundary, deterministically ---------------------------

// firing logs the tag of each fired event.
type firing struct{ got []int }

func (f *firing) tag(i int) func() { return func() { f.got = append(f.got, i) } }

func (f *firing) want(t *testing.T, want ...int) {
	t.Helper()
	if !slices.Equal(f.got, want) {
		t.Fatalf("fired %v, want %v", f.got, want)
	}
}

// TestTieGoesToFarTier forces the merge's tie rule: one timestamp is
// pushed while it lies beyond the window (far), the clock advances,
// and the same timestamp is pushed again (now near). The far events
// carry the smaller seqs and must fire first.
func TestTieGoesToFarTier(t *testing.T) {
	e := New()
	var f firing
	at := Time(ringSlots + 100)
	e.At(200, f.tag(0))
	e.At(at, f.tag(2)) // at >= cur+W: far
	e.At(at, f.tag(3))
	e.RunUntil(200) // pops 0, which slides the window over at
	e.At(at, f.tag(4))
	e.At(at, f.tag(5))
	if e.wheel.far.len() != 2 || e.wheel.near != 2 {
		t.Fatalf("want the instant split 2 far / 2 near, got %d / %d", e.wheel.far.len(), e.wheel.near)
	}
	e.At(at-1, f.tag(1)) // a later push at an earlier instant still precedes the tie
	e.Run()
	f.want(t, 0, 1, 2, 3, 4, 5)
}

// TestWindowBoundary files W-1 near and W, W+1 far, and pops them in
// time order together with a later near push at W.
func TestWindowBoundary(t *testing.T) {
	e := New()
	var f firing
	e.At(ringSlots+1, f.tag(4))
	e.At(ringSlots, f.tag(2))
	e.At(ringSlots-1, f.tag(1))
	e.At(0, f.tag(0))
	if e.wheel.far.len() != 2 || e.wheel.near != 2 {
		t.Fatalf("want 2 far / 2 near, got %d / %d", e.wheel.far.len(), e.wheel.near)
	}
	e.RunUntil(ringSlots - 1)
	e.At(ringSlots, f.tag(3)) // same instant as a far event: fires after it
	e.Run()
	f.want(t, 0, 1, 2, 3, 4)
	if e.Now() != ringSlots+1 {
		t.Fatalf("clock ended at %v, want %v", e.Now(), Time(ringSlots+1))
	}
}

// TestRunUntilThenPush: RunUntil stops between events, and a push then
// lands after the deadline but before the event RunUntil's peek looked
// at. A peek must move nothing, so the push is filed and fires in order
// — also when RunUntil fast-forwarded the engine clock across an empty
// queue and the wheel clock lags it by more than a window.
func TestRunUntilThenPush(t *testing.T) {
	e := New()
	var f firing
	e.At(100, f.tag(0))
	e.At(3*ringSlots, f.tag(3)) // far
	e.At(6000, f.tag(2))        // near, but beyond the deadline below
	e.RunUntil(5000)
	e.At(5001, f.tag(1)) // between the deadline and both pending events
	e.Run()
	f.want(t, 0, 1, 2, 3)

	e = New()
	f = firing{}
	e.RunUntil(100 * ringSlots) // empty queue: only the engine clock moves
	e.After(5, f.tag(1))
	e.After(0, f.tag(0))
	e.After(ringSlots+5, f.tag(4))
	e.After(5, f.tag(2))
	e.After(ringSlots-1, f.tag(3))
	e.Run()
	f.want(t, 0, 1, 2, 3, 4)
	if want := Time(101*ringSlots + 5); e.Now() != want {
		t.Fatalf("clock ended at %v, want %v", e.Now(), want)
	}
}

// TestSameInstantMegabatch schedules a quarter-million events at one
// instant. They share one slot's list, appended and unlinked at its
// ends, so the batch costs O(1) per event (a scan or copy per event
// would make this test take minutes), fires in scheduling order, and
// a callback may keep appending to the instant being drained.
func TestSameInstantMegabatch(t *testing.T) {
	const n = 1 << 18
	e := New()
	next := 0
	ordered := true
	fn := func(i int) func() {
		return func() {
			ordered = ordered && i == next
			next++
		}
	}
	for i := 0; i < n; i++ {
		e.At(2000, fn(i))
	}
	words := 0
	for _, w := range e.wheel.occupied {
		if w != 0 {
			words++
		}
	}
	if words != 1 || e.wheel.near != n {
		t.Fatalf("megabatch spread over %d bitmap words, near=%d; want one slot holding %d", words, e.wheel.near, n)
	}
	e.At(2000, func() { e.After(0, fn(n+1)) }) // appends to the slot mid-drain
	e.At(2000, fn(n))
	e.Run()
	if !ordered || next != n+2 {
		t.Fatalf("megabatch fired %d of %d events, in order: %v", next, n+2, ordered)
	}
}
