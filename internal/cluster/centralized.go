package cluster

import (
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sim"
)

// CentralizedPS is the idealized centralized processor-sharing system
// of the §2 motivation simulations (Figures 1 and 2) and the "CT" side
// of Figure 4: one infinitely fast scheduler maintains a global queue
// and hands out quanta to workers; the only cost is a configurable
// per-preemption overhead.
type CentralizedPS struct {
	// Workers is the number of serving cores (paper: 16, with a 17th
	// core acting as the free centralized scheduler).
	Workers int
	// Quantum is the processor-sharing quantum.
	Quantum sim.Time
	// PreemptOverhead is charged each time a worker switches away from
	// an unfinished job (§2 evaluates 0, 0.1µs and 1µs).
	PreemptOverhead sim.Time
	// Discipline, when non-empty, orders the global queue by a pifo
	// discipline name instead of the rr default (which reproduces the
	// original round-robin PS bit for bit). At a quantum boundary the
	// running job switches out only if the queue head ranks at or below
	// it — so fcfs becomes run-to-completion c-FCFS and srpt becomes
	// quantum-granularity preemptive SRPT.
	Discipline string
}

// NewCentralizedPS returns the ideal CT machine.
func NewCentralizedPS(workers int, quantum, overhead sim.Time) *CentralizedPS {
	if workers <= 0 || quantum <= 0 || overhead < 0 {
		panic("cluster: invalid CentralizedPS parameters")
	}
	return &CentralizedPS{Workers: workers, Quantum: quantum, PreemptOverhead: overhead}
}

// Name implements Machine.
func (c *CentralizedPS) Name() string { return disciplineName("CT-PS", c.Discipline) }

type ctRun struct {
	machineRun
	basePolicy
	m     *CentralizedPS
	rank  ranker
	queue pifo.Queue[*job]
	// free lists idle core indices. Worker identity is immaterial to the
	// idealized model's results, but giving each core a stable index lets
	// the machine share the per-core timeline vocabulary with the others.
	free  []int32
	cores []ctCore
}

// ctCore is one serving core's pending event. A core is either running
// a quantum of j (onEnd pending) or paying the switch overhead before
// mounting j (onMount pending), never both, so one job slot and two
// callbacks bound once carry what a closure per quantum used to
// capture.
type ctCore struct {
	j       *job
	slice   sim.Time // how long j runs this quantum
	onEnd   func()   // r.quantumEnd(core)
	onMount func()   // r.mount(j, core)
}

// newRun fills r, zero or recycled; only storage survives a recycling.
func (c *CentralizedPS) newRun(r *ctRun, cfg RunConfig) {
	r.m = c
	r.rank = newRanker(parseDiscipline(c.Discipline, pifo.RR), cfg)
	r.queue.Reset()
	r.free = r.free[:0]
	for i := c.Workers - 1; i >= 0; i-- {
		r.free = append(r.free, int32(i)) // pop from the end: core 0 first
	}
	r.cores = resize(r.cores, c.Workers, func(i int, cr *ctCore) {
		core := int32(i)
		cr.onEnd = func() { r.quantumEnd(core) }
		cr.onMount = func() { r.mount(r.cores[core].j, core) }
	})
	for i := range r.cores {
		r.cores[i] = ctCore{onEnd: r.cores[i].onEnd, onMount: r.cores[i].onMount}
	}
}

// Run implements Machine.
func (c *CentralizedPS) Run(cfg RunConfig) *Result {
	r := ctRuns.get()
	defer ctRuns.put(r, &r.machineRun)
	c.newRun(r, cfg)
	// The idealized scheduler has no bounded RX stage (limit 0): the
	// gate admits everything, but the arrive path still goes through it
	// so Offered/Dropped accounting is uniform across machine models.
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), 0, 1)
	return r.run(c.Name(), 0)
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode).
func (c *CentralizedPS) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(ctRun)
	c.newRun(r, cfg)
	r.attach(eng, cfg, r, 0, 1)
	r.bind(c.Name(), c.Workers, 0)
	return r
}

// admit implements machinePolicy: the free scheduler mounts the job on
// an idle core immediately, or parks it in the global queue.
func (r *ctRun) admit(_ int, j *job) {
	if n := len(r.free); n > 0 {
		core := r.free[n-1]
		r.free = r.free[:n-1]
		r.mount(j, core)
	} else {
		r.queue.Push(j, r.rank.rank(j, r.eng.Now()))
	}
}

// mount puts j on an idle core: in timeline terms the free scheduler
// dispatches the job (again, after a preemption) and its quantum opens.
// Back-to-back quanta of the same job on the same core stay merged into
// one open quantum — the core never actually switches.
func (r *ctRun) mount(j *job, core int32) {
	now := r.eng.Now()
	r.met.emit(now, obs.Dispatch, j.id, j.class, core)
	r.met.emit(now, obs.QuantumStart, j.id, j.class, core)
	r.runQuantum(j, core)
}

// runQuantum executes one quantum of j on the given core; quantumEnd
// decides what the core does next at the quantum boundary.
//
//simvet:hotpath
func (r *ctRun) runQuantum(j *job, core int32) {
	slice := j.remain
	if slice > r.m.Quantum {
		slice = r.m.Quantum
	}
	c := &r.cores[core]
	c.j, c.slice = j, slice
	r.eng.After(slice, c.onEnd)
}

// quantumEnd is the core's bound quantum-boundary callback.
//
//simvet:hotpath
func (r *ctRun) quantumEnd(core int32) {
	c := &r.cores[core]
	j := c.j
	c.j = nil
	j.remain -= c.slice
	now := r.eng.Now()
	if j.remain <= 0 {
		r.met.emit(now, obs.QuantumEnd, j.id, j.class, core)
		r.met.emit(now, obs.Finish, j.id, j.class, core)
		r.met.record(j, now)
		r.pool.put(j)
		if next, _, ok := r.queue.Pop(); ok {
			r.mount(next, core)
		} else {
			r.free = append(r.free, core)
		}
		return
	}
	// The switch rule: yield the core iff the queue head ranks at or
	// below the running job at this boundary. Under rr the head's
	// rank is its (earlier) queue time, so the rule is "switch
	// whenever anything waits" — exactly round-robin PS. Under fcfs
	// the head arrived later, ranks higher, and never wins — run to
	// completion. Under srpt/edf/las the comparison is the policy.
	_, headRank, ok := r.queue.Peek()
	if !ok {
		// Nothing else to run: keep executing the same job without
		// a preemption (real PS would not switch). The open quantum
		// extends rather than closing and reopening.
		r.runQuantum(j, core)
		return
	}
	myRank := r.rank.rank(j, now)
	if headRank > myRank {
		r.runQuantum(j, core)
		return
	}
	next, _, _ := r.queue.Pop()
	// Preempt: pay the switch overhead, requeue, run the next job.
	r.met.emit(now, obs.QuantumEnd, j.id, j.class, core)
	r.met.emit(now, obs.Preempt, j.id, j.class, core)
	r.queue.Push(j, myRank)
	if r.m.PreemptOverhead > 0 {
		c.j = next
		r.eng.After(r.m.PreemptOverhead, c.onMount)
	} else {
		r.mount(next, core)
	}
}

var _ Machine = (*CentralizedPS)(nil)
