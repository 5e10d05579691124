package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// CaladanMode selects how packets reach worker cores.
type CaladanMode int

// Caladan's two operating modes (§5.1).
const (
	// IOKernel routes every packet through a central IOKernel core —
	// cheap for workers but a potential throughput bottleneck.
	IOKernel CaladanMode = iota
	// Directpath lets workers talk to the NIC directly — no central
	// bottleneck, but per-packet processing lands on the workers.
	Directpath
)

// String names the mode as it appears in system labels ("iokernel",
// "directpath").
func (m CaladanMode) String() string {
	if m == IOKernel {
		return "iokernel"
	}
	return "directpath"
}

// CaladanParams configures the Caladan baseline model: FCFS
// run-to-completion with RSS packet steering and work stealing.
type CaladanParams struct {
	// Workers is the number of worker cores (paper: 16).
	Workers int
	// Mode selects IOKernel or Directpath packet routing. The paper
	// evaluates both and reports the better one per workload; the
	// sweep driver in this package does the same.
	Mode CaladanMode
	// IOKCost is IOKernel time per packet direction.
	IOKCost sim.Time
	// DirectCost is extra worker time per request in directpath mode
	// (RX descriptor handling, parsing, TX).
	DirectCost sim.Time
	// StealCost is the latency for an idle worker to steal a queued
	// job from another core.
	StealCost sim.Time
	// RXQueue bounds the IOKernel's unprocessed-packet backlog, in
	// packets; arrivals beyond it drop as at a full NIC RX ring.
	RXQueue int
	// RTT is the simulated network round trip for end-to-end latency.
	RTT sim.Time
}

// NewCaladanParams returns calibrated defaults in the given mode.
func NewCaladanParams(mode CaladanMode) CaladanParams {
	return CaladanParams{
		Workers:    16,
		Mode:       mode,
		IOKCost:    70 * sim.Nanosecond,
		DirectCost: 260 * sim.Nanosecond,
		StealCost:  150 * sim.Nanosecond,
		RTT:        sim.Micros(8),
		RXQueue:    2048,
	}
}

// Caladan is the FCFS run-to-completion baseline with work stealing.
type Caladan struct{ P CaladanParams }

// NewCaladan returns a Caladan machine.
func NewCaladan(p CaladanParams) *Caladan {
	if p.Workers <= 0 {
		panic("cluster: invalid Caladan parameters")
	}
	return &Caladan{P: p}
}

// Name implements Machine.
func (c *Caladan) Name() string { return "Caladan-" + c.P.Mode.String() }

type calWorker struct {
	queue core.FIFO[*job]
	busy  bool
	// A busy worker has exactly one event pending — the steal latency
	// before stolen starts, or cur's completion — so one slot of each and
	// two callbacks bound once replace a closure per event.
	stolen  *job
	cur     *job
	onSteal func() // r.startStolen(w)
	onDone  func() // r.finish(w)
}

type calRun struct {
	machineRun
	basePolicy
	m       *Caladan
	workers []calWorker
	idle    []int // idle worker indices (spinning, ready to steal)
	rss     core.RSS
	rand    *rng.Rand

	// The IOKernel is a serial server: packets in service wait in iokQ
	// (each with its RSS target in j.worker) and each schedules the one
	// bound callback, onForward, at its hand-off instant. iokBusyUntil
	// never decreases and the engine is FIFO at equal timestamps, so the
	// callbacks fire in queue order.
	iokBusyUntil sim.Time
	iokQ         core.FIFO[*job]
	onForward    func() // r.forward()
}

// newRun fills r, zero or recycled, and returns its RX bound: only the
// IOKernel is a bounded serial stage; directpath workers read the NIC
// directly, so their arrive path goes through an unbounded gate (limit
// 0) and never drops.
func (c *Caladan) newRun(r *calRun, cfg RunConfig) int {
	r.m = c
	r.rand = rng.New(cfg.Seed ^ 0xca1ada)
	r.iokBusyUntil = 0
	r.iokQ.Reset()
	r.onForward = r.forward
	r.workers = resize(r.workers, c.P.Workers, func(w int, wk *calWorker) {
		wk.onSteal = func() { r.startStolen(w) }
		wk.onDone = func() { r.finish(w) }
	})
	r.idle = r.idle[:0]
	for w := range r.workers {
		wk := &r.workers[w]
		wk.queue.Reset()
		*wk = calWorker{queue: wk.queue, onSteal: wk.onSteal, onDone: wk.onDone}
		r.idle = append(r.idle, w)
	}
	if c.P.Mode == IOKernel {
		return c.P.RXQueue
	}
	return 0
}

// Run implements Machine.
func (c *Caladan) Run(cfg RunConfig) *Result {
	r := calRuns.get()
	defer calRuns.put(r, &r.machineRun)
	limit := c.newRun(r, cfg)
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), limit, 1)
	return r.run(c.Name(), c.P.RTT)
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode). One mode per node: BestCaladan's
// run-both-and-pick cannot share an engine, so "caladan-ws" has no node
// form.
func (c *Caladan) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(calRun)
	limit := c.newRun(r, cfg)
	r.attach(eng, cfg, r, limit, 1)
	r.bind(c.Name(), c.P.Workers, c.P.RTT)
	return r
}

// inflate implements machinePolicy: in directpath mode packet
// processing happens on the worker, so it rides on the job's demand.
func (r *calRun) inflate(s sim.Time) sim.Time {
	if r.m.P.Mode == Directpath {
		return s + r.m.P.DirectCost
	}
	return s
}

// admit implements machinePolicy: RSS steers the packet; in IOKernel
// mode the IOKernel is a serial server between NIC and workers, and
// the packet holds its ring slot until the IOKernel forwards it.
//
//simvet:hotpath
func (r *calRun) admit(_ int, j *job) {
	j.worker = r.rss.Steer(j.id, len(r.workers))
	if r.m.P.Mode == IOKernel {
		r.iokTransit()
		r.iokQ.Push(j)
		r.eng.At(r.iokBusyUntil, r.onForward)
	} else {
		r.deliver(j.worker, j)
	}
}

// iokTransit charges the IOKernel for one packet direction.
func (r *calRun) iokTransit() {
	if now := r.eng.Now(); r.iokBusyUntil < now {
		r.iokBusyUntil = now
	}
	r.iokBusyUntil += r.m.P.IOKCost
}

// forward is the IOKernel's bound callback: the head packet frees its
// ring slot (the one lane) and reaches its worker.
//
//simvet:hotpath
func (r *calRun) forward() {
	j, _ := r.iokQ.Pop()
	r.adm.release(0, j.tenant)
	r.deliver(j.worker, j)
}

// deliver places a job on its RSS-steered worker's queue. If that
// worker is busy but another is idle and spinning, the idle worker
// steals the job after the steal latency — Caladan's work stealing
// keeps cores busy whenever any work exists.
//
// Dispatch records where RSS (or the steal at delivery) bound the job;
// under later stealing the quantum may run on a different core than
// the one dispatched to, which the timeline shows faithfully.
//
//simvet:hotpath
func (r *calRun) deliver(w int, j *job) {
	wk := &r.workers[w]
	if !wk.busy {
		wk.busy = true
		r.removeIdle(w)
		r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(w))
		r.runJob(w, j)
		return
	}
	if len(r.idle) > 0 {
		// A spinning idle worker steals it.
		i := r.rand.Intn(len(r.idle))
		thief := r.idle[i]
		r.idle[i] = r.idle[len(r.idle)-1]
		r.idle = r.idle[:len(r.idle)-1]
		twk := &r.workers[thief]
		twk.busy = true
		r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(thief))
		twk.stolen = j
		r.eng.After(r.m.P.StealCost, twk.onSteal)
		return
	}
	r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(w))
	wk.queue.Push(j)
}

func (r *calRun) removeIdle(w int) {
	for i, v := range r.idle {
		if v == w {
			r.idle[i] = r.idle[len(r.idle)-1]
			r.idle = r.idle[:len(r.idle)-1]
			return
		}
	}
}

// runJob executes j to completion on worker w (FCFS, no preemption):
// exactly one quantum per task, ending in finish.
//
//simvet:hotpath
func (r *calRun) runJob(w int, j *job) {
	wk := &r.workers[w]
	r.met.emit(r.eng.Now(), obs.QuantumStart, j.id, j.class, int32(w))
	wk.cur = j
	r.eng.After(j.remain, wk.onDone)
}

// startStolen is worker w's bound steal callback: the steal latency has
// elapsed and the stolen job starts.
//
//simvet:hotpath
func (r *calRun) startStolen(w int) {
	wk := &r.workers[w]
	j := wk.stolen
	wk.stolen = nil
	r.runJob(w, j)
}

// finish is worker w's bound completion callback.
//
//simvet:hotpath
func (r *calRun) finish(w int) {
	wk := &r.workers[w]
	j := wk.cur
	wk.cur = nil
	now := r.eng.Now()
	r.met.emit(now, obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(now, obs.Finish, j.id, j.class, int32(w))
	r.met.record(j, now)
	r.pool.put(j)
	if r.m.P.Mode == IOKernel {
		// Response transits the IOKernel; it does not block the
		// worker, but consumes IOKernel capacity.
		r.iokTransit()
	}
	r.next(w)
}

// next finds the worker's next job: its own queue first, then stealing
// from the most loaded victim, else it goes idle and spins.
//
//simvet:hotpath
func (r *calRun) next(w int) {
	wk := &r.workers[w]
	if j, ok := wk.queue.Pop(); ok {
		r.runJob(w, j)
		return
	}
	// Steal: scan for a victim with queued work (cost modelled in the
	// steal latency).
	victim := -1
	best := 0
	for v := range r.workers {
		if v != w && r.workers[v].queue.Len() > best {
			best = r.workers[v].queue.Len()
			victim = v
		}
	}
	if victim >= 0 {
		wk.stolen, _ = r.workers[victim].queue.Pop()
		r.eng.After(r.m.P.StealCost, wk.onSteal)
		return
	}
	wk.busy = false
	r.idle = append(r.idle, w)
}

var _ Machine = (*Caladan)(nil)

// bestCaladan adapts BestCaladan to the Machine interface so sweep
// runners can treat "the better of Caladan's two modes" as one system.
type bestCaladan struct{ class string }

func (b bestCaladan) Run(cfg RunConfig) *Result { return BestCaladan(cfg, b.class) }
func (b bestCaladan) Name() string              { return "Caladan" }

// NewBestCaladan returns a Machine that runs every configuration under
// both Caladan modes and reports the better result, judged as in
// BestCaladan. It holds no state, so one value is safe to share — but
// sweep factories should still construct it per point, like any other
// machine.
func NewBestCaladan(class string) Machine { return bestCaladan{class: class} }

// BestCaladan runs the configuration under both modes and returns the
// better result, judged by the p99.9 sojourn of the given class (or
// overall throughput if class is empty) — mirroring §5.1's "we evaluate
// Caladan under both modes and report the better one". With an obs
// recorder attached, the two judging runs go untraced and the winning
// mode is deterministically re-run into the recorder, so the timeline
// holds exactly one machine's events.
func BestCaladan(cfg RunConfig, class string) *Result {
	if cfg.Obs != nil {
		rec := cfg.Obs
		cfg.Obs = nil
		winner := BestCaladan(cfg, class)
		mode := Directpath
		if winner.System == "Caladan-iokernel" {
			mode = IOKernel
		}
		cfg.Obs = rec
		return NewCaladan(NewCaladanParams(mode)).Run(cfg)
	}
	iok := NewCaladan(NewCaladanParams(IOKernel)).Run(cfg)
	dp := NewCaladan(NewCaladanParams(Directpath)).Run(cfg)
	if class == "" {
		if iok.Throughput >= dp.Throughput {
			return iok
		}
		return dp
	}
	ic, dc := iok.Class(class), dp.Class(class)
	switch {
	case ic == nil || ic.Count == 0:
		return dp
	case dc == nil || dc.Count == 0:
		return iok
	case ic.Sojourn.P999() <= dc.Sojourn.P999():
		return iok
	default:
		return dp
	}
}
