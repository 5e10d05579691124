package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// d-FCFS is the fully decentralized baseline of this literature: RSS
// spreads requests across per-worker NIC queues and each worker runs
// its own queue FCFS to completion — no central scheduler, no
// preemption, no work stealing. It is the classic foil to c-FCFS and
// PS: zero scheduling overhead, but head-of-line blocking behind long
// requests and load imbalance that nothing corrects.
//
// The machine is also this package's template for expressing a new
// system purely as kernel policies (see EXPERIMENTS.md "Adding a
// machine"): the three machinePolicy methods below are the entire
// arrival path, the run loop is one worker callback, bound once, and
// newRun is the whole of construction and of reset between pooled runs.

// DFCFSParams configures the d-FCFS baseline.
type DFCFSParams struct {
	// Workers is the number of worker cores (paper setups: 16).
	Workers int
	// ProcCost is per-request packet processing on the worker (RX
	// descriptor handling, parse, TX) — the same work Caladan's
	// directpath mode charges workers, since d-FCFS workers likewise
	// read the NIC directly.
	ProcCost sim.Time
	// RXQueue bounds each worker's NIC queue, in requests; arrivals
	// beyond it drop at that queue even while other workers sit idle —
	// decentralization's failure mode under skew.
	RXQueue int
	// RTT is the simulated network round trip for end-to-end latency.
	RTT sim.Time
	// Discipline, when non-empty, reorders each worker's queue by a
	// pifo discipline name. The default fcfs ranks by arrival, which is
	// queue order, so the baseline stays bit-identical; srpt turns each
	// worker into non-preemptive SJF (workers still run to completion).
	Discipline string
}

// NewDFCFSParams returns defaults matching the other baselines'
// calibration.
func NewDFCFSParams() DFCFSParams {
	return DFCFSParams{
		Workers:  16,
		ProcCost: 260 * sim.Nanosecond,
		RXQueue:  256,
		RTT:      sim.Micros(8),
	}
}

// DFCFS is the decentralized-FCFS machine.
type DFCFS struct{ P DFCFSParams }

// NewDFCFS returns a d-FCFS machine.
func NewDFCFS(p DFCFSParams) *DFCFS {
	if p.Workers <= 0 {
		panic("cluster: invalid d-FCFS parameters")
	}
	if p.Discipline != "" {
		parseDiscipline(p.Discipline, pifo.FCFS) // panic on a bad name now
	}
	return &DFCFS{P: p}
}

// Name implements Machine.
func (d *DFCFS) Name() string { return disciplineName("d-FCFS", d.P.Discipline) }

type dfWorker struct {
	queue pifo.Queue[*job]
	busy  bool
	// cur is the job in service. A worker runs one job at a time, so its
	// completion is one callback bound once plus this slot — not a
	// closure per job, which would put an allocation on every event.
	cur    *job
	onDone func() // r.finish(w)
}

type dfRun struct {
	machineRun
	m       *DFCFS
	rank    ranker
	workers []dfWorker
	rss     core.RSS
}

// newRun fills r, zero or put back in dfRuns by a finished run: one code
// path for construction and reset. The worker slice and queue arrays are
// kept and emptied; callbacks are bound when a worker slice is made.
func (d *DFCFS) newRun(r *dfRun, cfg RunConfig) {
	r.m = d
	r.rank = newRanker(parseDiscipline(d.P.Discipline, pifo.FCFS), cfg)
	r.workers = resize(r.workers, d.P.Workers, func(w int, wk *dfWorker) { wk.onDone = func() { r.finish(w) } })
	for w := range r.workers {
		wk := &r.workers[w]
		wk.queue.Reset()
		*wk = dfWorker{queue: wk.queue, onDone: wk.onDone}
	}
}

// Run implements Machine on a struct from, and back to, dfRuns.
func (d *DFCFS) Run(cfg RunConfig) *Result {
	r := dfRuns.get()
	defer dfRuns.put(r, &r.machineRun)
	d.newRun(r, cfg)
	// One RX lane per worker: each NIC queue is its own bounded ring.
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), d.P.RXQueue, d.P.Workers)
	return r.run(d.Name(), d.P.RTT)
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode).
func (d *DFCFS) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(dfRun)
	d.newRun(r, cfg)
	r.attach(eng, cfg, r, d.P.RXQueue, d.P.Workers)
	r.bind(d.Name(), d.P.Workers, d.P.RTT)
	return r
}

// admitLane implements machinePolicy: RSS hashes the request to its
// worker's NIC queue. The lane is the worker — there is no later
// steering decision to revisit it.
func (r *dfRun) admitLane(req workload.Request) int {
	return r.rss.Steer(req.ID, len(r.workers))
}

// dropCore implements machinePolicy: the lane is a per-worker NIC
// queue, so an overflow there is that worker's loss — the timeline
// books it on the worker's track, not the (nonexistent) dispatcher's.
func (r *dfRun) dropCore(lane int) int32 { return int32(lane) }

// inflate implements machinePolicy: packet processing happens on the
// worker, as in Caladan's directpath mode.
func (r *dfRun) inflate(s sim.Time) sim.Time { return s + r.m.P.ProcCost }

// admit implements machinePolicy: the job runs immediately if its
// worker is idle, else waits in the worker's FCFS queue. A queued
// request keeps its RX-ring slot until the worker dequeues it, so
// RXQueue bounds the true per-worker backlog.
func (r *dfRun) admit(lane int, j *job) {
	r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(lane))
	wk := &r.workers[lane]
	if wk.busy {
		wk.queue.Push(j, r.rank.rank(j, r.eng.Now()))
		return
	}
	wk.busy = true
	r.adm.release(lane, j.tenant)
	r.runJob(lane, j)
}

// runJob starts j on worker w — FCFS, one quantum per job, run to
// completion.
//
//simvet:hotpath
func (r *dfRun) runJob(w int, j *job) {
	wk := &r.workers[w]
	r.met.emit(r.eng.Now(), obs.QuantumStart, j.id, j.class, int32(w))
	wk.cur = j
	r.eng.After(j.remain, wk.onDone)
}

// finish is worker w's bound completion callback: retire the job in
// service, then take the queue head or go idle.
//
//simvet:hotpath
func (r *dfRun) finish(w int) {
	wk := &r.workers[w]
	j := wk.cur
	wk.cur = nil
	now := r.eng.Now()
	r.met.emit(now, obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(now, obs.Finish, j.id, j.class, int32(w))
	r.met.record(j, now)
	r.pool.put(j)
	if next, _, ok := wk.queue.Pop(); ok {
		r.adm.release(w, next.tenant)
		r.runJob(w, next)
		return
	}
	wk.busy = false
}

var _ Machine = (*DFCFS)(nil)
