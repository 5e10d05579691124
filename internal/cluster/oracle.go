package cluster

import (
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Oracle is the UPS-style clairvoyant baseline (registry name
// "oracle-srpt"): following Universal Packet Scheduling's methodology
// of comparing practical schedulers against an omniscient replay, it
// reads every job's true service time from the generator and runs
// preemptive shortest-remaining-processing-time with zero mechanism
// overheads — no dispatch cost, no probe inflation, no quantum
// granularity, no bounded RX ring, instant preemption. Nothing a blind
// scheduler can build beats it on mean sojourn, and in practice it
// lower-bounds the tails too, so every registry machine's distance
// from it is its optimality gap (experiments.OptimalityGapTable): TQ's
// headline claim is that blind tiny-quanta scheduling closes most of
// that gap.
//
// Deliberate rule break: the machines are otherwise forbidden from
// reading workload.Request.Service for scheduling; the oracle's entire
// point is to violate that and show what the knowledge is worth.
type Oracle struct {
	// Workers is the number of serving cores (paper setups: 16).
	Workers int
}

// NewOracle returns the clairvoyant SRPT machine.
func NewOracle(workers int) *Oracle {
	if workers <= 0 {
		panic("cluster: Oracle needs at least one worker")
	}
	return &Oracle{Workers: workers}
}

// Name implements Machine.
func (o *Oracle) Name() string { return "Oracle-SRPT" }

// oracleCore is one serving core's state. gen is a generation counter
// guarding the pending completion timer: the engine has no event
// cancellation, so a preemption bumps gen and the stale timer no-ops
// when it fires.
type oracleCore struct {
	j          *job
	sliceStart sim.Time // when j last mounted; remaining = j.remain - (now - sliceStart)
	gen        uint64
}

type oracleRun struct {
	machineRun
	basePolicy
	m     *Oracle
	rank  ranker
	queue pifo.Queue[*job] // preempted and not-yet-started jobs, SRPT order
	cores []oracleCore
	// timers carries the per-slice completion events, which a
	// preemption may outdate before they fire.
	timers genTimers
}

// newRun fills r, zero or recycled; only storage survives a recycling.
func (o *Oracle) newRun(r *oracleRun, cfg RunConfig) {
	r.m = o
	r.rank = newRanker(pifo.SRPT, cfg)
	r.queue.Reset()
	r.cores = resize(r.cores, o.Workers, func(int, *oracleCore) {}) // no callbacks: genTimers carries them
	clear(r.cores)
	r.timers.fire = r.sliceEnd
}

// Run implements Machine.
func (o *Oracle) Run(cfg RunConfig) *Result {
	r := oracleRuns.get()
	defer oracleRuns.put(r, &r.machineRun)
	o.newRun(r, cfg)
	// The oracle has no bounded RX stage (limit 0): an optimality
	// baseline that shed load would bound nothing.
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), 0, 1)
	return r.run(o.Name(), 0)
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode).
func (o *Oracle) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(oracleRun)
	o.newRun(r, cfg)
	r.attach(eng, cfg, r, 0, 1)
	r.bind(o.Name(), o.Workers, 0)
	return r
}

// admit implements machinePolicy: mount on an idle core if one exists;
// otherwise preempt the core holding the most remaining work if the
// newcomer has strictly less, else queue by remaining service. This is
// exactly global preemptive SRPT: at every instant the Workers jobs
// with the least remaining work are running.
func (r *oracleRun) admit(_ int, j *job) {
	now := r.eng.Now()
	worst, worstRem := -1, sim.Time(0)
	for i := range r.cores {
		c := &r.cores[i]
		if c.j == nil {
			r.start(j, i)
			return
		}
		if rem := c.j.remain - (now - c.sliceStart); rem > worstRem {
			worst, worstRem = i, rem
		}
	}
	if j.remain < worstRem {
		r.preempt(worst, now)
		r.start(j, worst)
		return
	}
	r.queue.Push(j, r.rank.rank(j, now))
}

// preempt forces the victim core's job off mid-slice: settle its
// remaining work, invalidate the pending completion callback, and
// requeue it at its new SRPT rank.
func (r *oracleRun) preempt(core int, now sim.Time) {
	c := &r.cores[core]
	v := c.j
	v.remain -= now - c.sliceStart
	c.gen++
	c.j = nil
	r.met.emit(now, obs.QuantumEnd, v.id, v.class, int32(core))
	r.met.emit(now, obs.Preempt, v.id, v.class, int32(core))
	r.queue.Push(v, r.rank.rank(v, now))
}

// start mounts j on an idle core and schedules its completion. The
// slice runs j to its full remaining demand; if a shorter job preempts
// first, the generation check discards the stale timer.
//
//simvet:hotpath
func (r *oracleRun) start(j *job, core int) {
	now := r.eng.Now()
	c := &r.cores[core]
	c.j = j
	c.sliceStart = now
	c.gen++
	r.met.emit(now, obs.Dispatch, j.id, j.class, int32(core))
	r.met.emit(now, obs.QuantumStart, j.id, j.class, int32(core))
	r.timers.after(r.eng, j.remain, 0, core, c.gen)
}

// sliceEnd handles the completion timer start armed (the oracle has one
// kind of timer).
//
//simvet:hotpath
func (r *oracleRun) sliceEnd(_ uint8, core int, gen uint64) {
	if r.cores[core].gen != gen {
		return // preempted mid-slice; the job was requeued
	}
	r.complete(core)
}

// complete retires the core's finished job and mounts the next-shortest
// queued one.
func (r *oracleRun) complete(core int) {
	now := r.eng.Now()
	c := &r.cores[core]
	j := c.j
	j.remain = 0
	c.j = nil
	r.met.emit(now, obs.QuantumEnd, j.id, j.class, int32(core))
	r.met.emit(now, obs.Finish, j.id, j.class, int32(core))
	r.met.record(j, now)
	r.pool.put(j)
	if next, _, ok := r.queue.Pop(); ok {
		r.start(next, core)
	}
}

var _ Machine = (*Oracle)(nil)
