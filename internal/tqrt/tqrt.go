// Package tqrt is a live Go implementation of Tiny Quanta's runtime: a
// dispatcher goroutine that load-balances submitted tasks across worker
// goroutines with JSQ + MSQ tie-breaking (§3.2, §4), and per-worker
// cooperative scheduling of task coroutines in processor-sharing order
// with physical-clock probe points (§3.1).
//
// Tasks are ordinary closures that receive a *Yield handle and call
// Probe() at probe points — the role the paper's LLVM pass automates
// for C code. A Probe is a few nanoseconds when the quantum has not
// expired; when it has, the task parks and the worker's scheduler
// coroutine resumes the next task in its run queue.
//
// Timing expectations differ from the paper's C runtime: a goroutine
// park/resume handoff costs on the order of a few hundred nanoseconds
// (vs 20-40ns for Boost coroutines), so practical quanta in Go start
// around 5-20µs. The architecture — blind PS quanta on workers, a
// balancing-only dispatcher reading wrapping worker counters — is the
// paper's.
package tqrt

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Task is one unit of work. It must call y.Probe() at reasonable
// intervals (its "probe points") for preemption to work; a task that
// never probes simply runs to completion, like an FCFS job.
type Task func(y *Yield)

// BalancePolicy selects the dispatcher's load-balancing policy.
type BalancePolicy int

// Dispatcher policies.
const (
	// JSQMSQ is join-the-shortest-queue with maximum-serviced-quanta
	// tie-breaking — the TQ default.
	JSQMSQ BalancePolicy = iota
	// JSQRandom breaks JSQ ties uniformly.
	JSQRandom
	// RandomPolicy assigns uniformly at random.
	RandomPolicy
	// PowerOfTwoPolicy samples two workers and picks the shorter
	// queue.
	PowerOfTwoPolicy
)

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker scheduler goroutines (the
	// paper's worker cores). Defaults to 4.
	Workers int
	// Coroutines is the number of task coroutines per worker; admitted
	// tasks beyond this wait in the worker's dispatch queue (paper: 8).
	Coroutines int
	// Quantum is the processor-sharing quantum. Zero disables
	// preemption (FCFS run-to-completion).
	Quantum time.Duration
	// QueueCap bounds each worker's dispatch queue and the dispatcher
	// inbox. Defaults to 1024.
	QueueCap int
	// Policy selects the balancing policy. Defaults to JSQMSQ.
	Policy BalancePolicy
	// LAS, when set, orders each worker's run queue by least attained
	// service (in quanta) instead of round-robin processor sharing —
	// the dynamic policy §3.1's probes are designed to support.
	LAS bool
	// PinWorkers locks each worker's scheduler goroutine to an OS
	// thread, approximating the paper's dedicated worker cores when
	// GOMAXPROCS provides real parallelism.
	PinWorkers bool
	// Seed drives randomized policies.
	Seed uint64
	// TraceCap, when positive, records the runtime's scheduling timeline
	// in the unified obs vocabulary: each writer (submitters, the
	// dispatcher, every worker) gets its own ring of this capacity, so
	// recording adds no cross-core synchronization to the hot path.
	// Read the merged timeline with TraceEvents or WriteTrace after the
	// runtime quiesces. Zero disables tracing entirely.
	TraceCap int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Coroutines <= 0 {
		c.Coroutines = 8
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
}

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("tqrt: runtime stopped")

// Yield is a task's handle for cooperative preemption.
type Yield struct {
	w        *worker
	slot     int
	quantum  int64 // ns; 0 disables
	start    int64 // quantum start, ns (monotonic)
	critical int
	resume   chan struct{}
}

// Probe is the task-side probe point: it yields to the worker's
// scheduler if the current quantum has expired. It is a no-op inside a
// critical section or when preemption is disabled.
func (y *Yield) Probe() {
	if y.critical > 0 || y.quantum == 0 {
		return
	}
	if nanotime()-y.start < y.quantum {
		return
	}
	y.w.events <- event{kind: evYield, slot: y.slot}
	<-y.resume
}

// BeginCritical suspends preemption until the matching EndCritical —
// the paper's critical-section support (§4). Calls nest.
func (y *Yield) BeginCritical() { y.critical++ }

// EndCritical re-enables preemption. It panics on unmatched calls.
func (y *Yield) EndCritical() {
	if y.critical == 0 {
		panic("tqrt: EndCritical without BeginCritical")
	}
	y.critical--
}

// nanotime returns a monotonic timestamp in ns.
func nanotime() int64 { return time.Since(baseTime).Nanoseconds() }

var baseTime = time.Now()

type evKind int

const (
	evYield evKind = iota
	evDone
)

type event struct {
	kind evKind
	slot int
}

// taskMsg carries a task plus its trace identity (0 when tracing is
// off) from submitters through the dispatcher to a worker.
type taskMsg struct {
	t  Task
	id uint64
}

// coro is one pre-spawned task coroutine on a worker.
type coro struct {
	y      *Yield
	tasks  chan Task
	quanta int64  // quanta serviced for the current task (MSQ bookkeeping)
	id     uint64 // trace identity of the current task
}

// worker is one scheduler goroutine plus its coroutine pool.
type worker struct {
	id     int
	rt     *Runtime
	inbox  chan taskMsg // dispatch queue, fed by the dispatcher
	events chan event
	rec    *obs.Ring // this worker's trace shard; nil when tracing is off
	coros  []*coro
	idle   []int // indices of idle coroutines
	run    core.FIFO[int]
	las    core.LASQueue[int]
	useLAS bool
	// Worker-side statistics read by the dispatcher (§4): finished
	// wraps naturally; quanta tracks quanta serviced for current
	// tasks.
	finished atomic.Uint64
	quanta   atomic.Int64
}

// Runtime is a live TQ scheduler.
type Runtime struct {
	cfg     Config
	workers []*worker
	inbox   chan taskMsg
	stopped atomic.Bool
	// inflight counts submitted-but-unfinished tasks for Stop.
	inflight sync.WaitGroup
	wg       sync.WaitGroup
	// assigned is written by the dispatcher, read by diagnostics.
	assigned []atomic.Uint64

	// Tracing state, nil/zero when Config.TraceCap is 0. taskSeq hands
	// out trace identities at submission; client records arrivals and
	// drops (submitters are concurrent, hence the locked recorder);
	// disp records the dispatcher's binding decisions.
	taskSeq atomic.Uint64
	client  *obs.Locked
	disp    *obs.Ring
}

// New returns an unstarted runtime.
func New(cfg Config) *Runtime {
	cfg.fill()
	rt := &Runtime{
		cfg:      cfg,
		inbox:    make(chan taskMsg, cfg.QueueCap),
		assigned: make([]atomic.Uint64, cfg.Workers),
	}
	if cfg.TraceCap > 0 {
		rt.client = obs.NewLocked(cfg.TraceCap)
		rt.disp = obs.NewRing(cfg.TraceCap)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:     i,
			rt:     rt,
			inbox:  make(chan taskMsg, cfg.QueueCap),
			events: make(chan event),
			useLAS: cfg.LAS,
		}
		if cfg.TraceCap > 0 {
			w.rec = obs.NewRing(cfg.TraceCap)
		}
		for s := 0; s < cfg.Coroutines; s++ {
			c := &coro{
				tasks: make(chan Task),
				y: &Yield{
					w:       w,
					slot:    s,
					quantum: cfg.Quantum.Nanoseconds(),
					resume:  make(chan struct{}),
				},
			}
			w.coros = append(w.coros, c)
			w.idle = append(w.idle, s)
		}
		rt.workers = append(rt.workers, w)
	}
	return rt
}

// Start launches the dispatcher, workers and coroutine pools.
func (rt *Runtime) Start() {
	for _, w := range rt.workers {
		for _, c := range w.coros {
			rt.wg.Add(1)
			go c.loop(&rt.wg, w)
		}
		rt.wg.Add(1)
		go w.loop(&rt.wg)
	}
	rt.wg.Add(1)
	go rt.dispatch()
}

// submitMsg stamps a task with its trace identity and records the
// arrival (the client-side instant, before any queueing).
func (rt *Runtime) submitMsg(t Task) taskMsg {
	m := taskMsg{t: t}
	if rt.client != nil {
		m.id = rt.taskSeq.Add(1)
		rt.client.Emit(obs.Event{T: nanotime(), Task: m.id, Core: obs.CoreLoadgen, Kind: obs.Arrive})
	}
	return m
}

// Submit hands a task to the dispatcher, blocking if its inbox is
// full. It returns ErrStopped after Stop.
func (rt *Runtime) Submit(t Task) error {
	if rt.stopped.Load() {
		return ErrStopped
	}
	rt.inflight.Add(1)
	rt.inbox <- rt.submitMsg(t)
	return nil
}

// TrySubmit is like Submit but fails fast when the dispatcher inbox is
// full. A rejected task appears in the trace as arrive followed by
// drop — the live analogue of the simulators' RX-ring overflow.
func (rt *Runtime) TrySubmit(t Task) error {
	if rt.stopped.Load() {
		return ErrStopped
	}
	rt.inflight.Add(1)
	m := rt.submitMsg(t)
	select {
	case rt.inbox <- m:
		return nil
	default:
		rt.inflight.Done()
		if rt.client != nil {
			rt.client.Emit(obs.Event{T: nanotime(), Task: m.id, Core: obs.CoreDispatcher, Kind: obs.Drop})
		}
		return fmt.Errorf("tqrt: dispatcher inbox full")
	}
}

// Wait blocks until every submitted task has completed.
func (rt *Runtime) Wait() { rt.inflight.Wait() }

// Stop waits for in-flight tasks, then shuts everything down. The
// runtime cannot be restarted.
func (rt *Runtime) Stop() {
	if rt.stopped.Swap(true) {
		return
	}
	rt.inflight.Wait()
	close(rt.inbox)
	rt.wg.Wait()
}

// TraceEvents merges the per-writer trace shards into one timeline,
// stably ordered by timestamp (ties keep submitter-before-dispatcher-
// before-worker order). It returns nil when tracing is off. Call it
// only after the runtime quiesces — after Stop, or after Wait with no
// concurrent submitters — since shards are read without locks.
func (rt *Runtime) TraceEvents() []obs.Event {
	if rt.client == nil {
		return nil
	}
	events := rt.client.Events()
	events = append(events, rt.disp.Events()...)
	for _, w := range rt.workers {
		events = append(events, w.rec.Events()...)
	}
	obs.SortByTime(events)
	return events
}

// TraceTruncated reports whether any trace shard ran out of capacity
// and discarded events. Each shard keeps a prefix of its own stream,
// so a truncated timeline still validates but undercounts late
// activity; raise Config.TraceCap to capture everything.
func (rt *Runtime) TraceTruncated() bool {
	if rt.client == nil {
		return false
	}
	if rt.client.Truncated() || rt.disp.Truncated() {
		return true
	}
	for _, w := range rt.workers {
		if w.rec.Truncated() {
			return true
		}
	}
	return false
}

// WriteTrace writes the merged timeline as Chrome trace-event JSON
// under the given track name — loadable in Perfetto alongside
// simulator traces, since both speak the same vocabulary. Like
// TraceEvents, call it only after the runtime quiesces.
func (rt *Runtime) WriteTrace(w io.Writer, name string) error {
	return obs.WriteChrome(w, obs.Process{Name: name, Events: rt.TraceEvents()})
}

// QueueLens returns the dispatcher's current view of per-worker
// unfinished-task counts (diagnostic).
func (rt *Runtime) QueueLens() []int {
	out := make([]int, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = int(rt.assigned[i].Load() - w.finished.Load())
	}
	return out
}

// WorkerStats is one worker's counters, as the dispatcher sees them.
type WorkerStats struct {
	// Assigned counts tasks the dispatcher forwarded to this worker.
	Assigned uint64
	// Finished counts completed tasks.
	Finished uint64
	// ServicedQuanta is the MSQ statistic: quanta serviced for the
	// worker's current (unfinished) tasks.
	ServicedQuanta int64
}

// Stats is a point-in-time snapshot of runtime counters. Counters are
// read individually without a global lock, so a snapshot taken while
// tasks run is approximate (each individual counter is exact).
type Stats struct {
	Workers []WorkerStats
}

// Completed sums finished tasks across workers.
func (s Stats) Completed() uint64 {
	var n uint64
	for _, w := range s.Workers {
		n += w.Finished
	}
	return n
}

// Stats snapshots the runtime's counters.
func (rt *Runtime) Stats() Stats {
	s := Stats{Workers: make([]WorkerStats, len(rt.workers))}
	for i, w := range rt.workers {
		s.Workers[i] = WorkerStats{
			Assigned:       rt.assigned[i].Load(),
			Finished:       w.finished.Load(),
			ServicedQuanta: w.quanta.Load(),
		}
	}
	return s
}

// liveView adapts worker atomics to core.View for the balancers: each
// Load reads every worker's counters once into the view's own slices.
type liveView struct {
	rt     *Runtime
	lens   []int
	quanta []int64
}

func (v *liveView) Workers() int { return len(v.lens) }

func (v *liveView) Load() ([]int, []int64) {
	for w, wk := range v.rt.workers {
		v.lens[w] = int(v.rt.assigned[w].Load() - wk.finished.Load())
		v.quanta[w] = wk.quanta.Load()
	}
	return v.lens, v.quanta
}

// dispatch is the dispatcher goroutine: one balancing decision per
// task, then a forward into the chosen worker's dispatch queue.
func (rt *Runtime) dispatch() {
	defer rt.wg.Done()
	r := rng.New(rt.cfg.Seed ^ 0xd15b)
	var bal core.Balancer
	switch rt.cfg.Policy {
	case JSQMSQ:
		bal = &core.JSQ{}
	case JSQRandom:
		bal = &core.JSQ{RandomTie: r}
	case RandomPolicy:
		bal = core.Random{R: r}
	case PowerOfTwoPolicy:
		bal = core.PowerOfTwo{R: r}
	default:
		panic("tqrt: unknown balance policy")
	}
	n := len(rt.workers)
	view := &liveView{rt: rt, lens: make([]int, n), quanta: make([]int64, n)}
	for m := range rt.inbox {
		w := bal.Pick(view)
		rt.assigned[w].Add(1)
		if rt.disp != nil {
			rt.disp.Emit(obs.Event{T: nanotime(), Task: m.id, Core: int32(w), Kind: obs.Dispatch})
		}
		rt.workers[w].inbox <- m
	}
	for _, w := range rt.workers {
		close(w.inbox)
	}
}

// loop is the worker's scheduler coroutine: admit tasks onto idle
// coroutines, resume the head of the run queue, process its yield or
// completion, repeat — the §4 worker loop.
func (w *worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	if w.rt.cfg.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	open := true
	for {
		// Admit while there are idle coroutines (non-blocking).
		for open && len(w.idle) > 0 {
			select {
			case m, ok := <-w.inbox:
				if !ok {
					open = false
					break
				}
				w.admit(m)
			default:
				goto admitted
			}
		}
	admitted:
		if w.runnableLen() == 0 {
			if !open {
				for _, c := range w.coros {
					close(c.tasks)
				}
				return
			}
			// Nothing runnable: block for the next task.
			m, ok := <-w.inbox
			if !ok {
				open = false
				continue
			}
			w.admit(m)
			continue
		}
		slot, _ := w.popRunnable()
		c := w.coros[slot]
		c.y.start = nanotime()
		if w.rec != nil {
			w.rec.Emit(obs.Event{T: c.y.start, Task: c.id, Core: int32(w.id), Kind: obs.QuantumStart})
		}
		c.y.resume <- struct{}{}
		ev := <-w.events
		switch ev.kind {
		case evYield:
			c.quanta++
			w.quanta.Add(1)
			w.pushRunnable(ev.slot)
			if w.rec != nil {
				now := nanotime()
				w.rec.Emit(obs.Event{T: now, Task: c.id, Core: int32(w.id), Kind: obs.QuantumEnd})
				w.rec.Emit(obs.Event{T: now, Task: c.id, Core: int32(w.id), Kind: obs.ProbeYield})
			}
		case evDone:
			// The task is gone: remove its serviced quanta from the
			// worker's current-task statistic.
			w.quanta.Add(-c.quanta)
			c.quanta = 0
			w.finished.Add(1)
			w.idle = append(w.idle, ev.slot)
			if w.rec != nil {
				now := nanotime()
				w.rec.Emit(obs.Event{T: now, Task: c.id, Core: int32(w.id), Kind: obs.QuantumEnd})
				w.rec.Emit(obs.Event{T: now, Task: c.id, Core: int32(w.id), Kind: obs.Finish})
			}
			w.rt.inflight.Done()
		}
	}
}

func (w *worker) admit(m taskMsg) {
	slot := w.idle[len(w.idle)-1]
	w.idle = w.idle[:len(w.idle)-1]
	w.coros[slot].id = m.id
	w.coros[slot].tasks <- m.t
	w.pushRunnable(slot)
}

// pushRunnable and popRunnable order the run queue by the configured
// policy: round-robin PS, or least attained service (in quanta).
func (w *worker) pushRunnable(slot int) {
	if w.useLAS {
		w.las.Push(slot, w.coros[slot].quanta)
		return
	}
	w.run.Push(slot)
}

func (w *worker) popRunnable() (int, bool) {
	if w.useLAS {
		slot, _, ok := w.las.Pop()
		return slot, ok
	}
	return w.run.Pop()
}

func (w *worker) runnableLen() int {
	if w.useLAS {
		return w.las.Len()
	}
	return w.run.Len()
}

// loop is the coroutine body: wait for a task, run it (parking at
// probe points), report completion.
func (c *coro) loop(wg *sync.WaitGroup, w *worker) {
	defer wg.Done()
	for t := range c.tasks {
		// The first quantum starts when the scheduler resumes us.
		<-c.y.resume
		t(c.y)
		c.y.critical = 0
		w.events <- event{kind: evDone, slot: c.y.slot}
	}
}
