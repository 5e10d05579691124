package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BalancerKind selects the TQ dispatcher's load-balancing policy.
type BalancerKind int

// Dispatcher load-balancing policies (§3.2, §5.4).
const (
	BalanceJSQMSQ    BalancerKind = iota // JSQ with MSQ tie-breaking (TQ default)
	BalanceJSQRandom                     // JSQ with random tie-breaking
	BalanceRandom                        // TQ-RAND
	BalancePowerTwo                      // TQ-POWER-TWO
)

// TQParams configures the TQ machine model. NewTQParams supplies the
// defaults matching the paper's setup (§5.1) and its measured
// mechanism costs (§3.1, §4, §6).
type TQParams struct {
	// Workers is the number of worker cores (paper: 16).
	Workers int
	// Quantum is the processor-sharing quantum (paper default: 2µs).
	Quantum sim.Time
	// Coroutines is the number of task coroutines per worker (paper:
	// 8; jobs beyond this wait in the worker's dispatch queue).
	Coroutines int
	// YieldOverhead is the cost of one coroutine switch back to the
	// scheduler coroutine and out to the next task (Boost coroutines
	// yield in 20-40ns; TQ-SLOW-YIELD adds 1µs).
	YieldOverhead sim.Time
	// ProbeOverhead inflates every job's service time by this fraction
	// to model compiler-inserted probe cost (TQ's pass ≈3-5%; the
	// instruction-counter baseline ≈60% on RocksDB GET, §3.1).
	ProbeOverhead float64
	// DispatchCost is the dispatcher's per-request cost. §6 reports
	// the TQ dispatcher sustains ≈14Mrps, i.e. ≈70ns per request.
	DispatchCost sim.Time
	// ParseCost is the worker-side cost to parse a request and bind it
	// to a coroutine (§4: the scheduler coroutine parses requests).
	ParseCost sim.Time
	// StatsPeriod is how often the dispatcher refreshes its view of
	// worker counters; load information is stale by up to this much.
	StatsPeriod sim.Time
	// RXQueue bounds the dispatcher's unprocessed-request backlog, in
	// requests; arrivals beyond it drop as at a full NIC RX ring.
	RXQueue int
	// RTT is the network round-trip added when reporting end-to-end
	// latency.
	RTT sim.Time
	// Balancer picks the dispatcher policy.
	Balancer BalancerKind
	// Dispatchers is the number of dispatcher cores (§6 extension);
	// incoming requests are RSS-steered across them and each runs the
	// balancing policy over a shared view. Zero means one.
	Dispatchers int
	// FCFS, when set, disables preemption entirely: each coroutine
	// runs its job to completion (the TQ-FCFS variant).
	FCFS bool
	// QuantumForClass, when non-nil, overrides the quantum per request
	// class — the TQ-TIMING variant emulates inaccurate preemption
	// timing by giving classes wrong quanta (1µs for GET, 3µs for
	// SCAN against a 2µs target, §5.4).
	QuantumForClass func(workload.Class) sim.Time
	// Discipline, when non-empty, sets the worker queue order to a pifo
	// discipline by name (pifo.Names). Empty is rr: round-robin processor
	// sharing, the paper's policy; las runs the job with the least
	// attained service first — approximating SRPT without service-time
	// knowledge, practical at µs scale because forced multitasking keeps
	// the quantum tiny.
	Discipline string
}

// NewTQParams returns the paper's default configuration.
func NewTQParams() TQParams {
	return TQParams{
		Workers:       16,
		Quantum:       sim.Micros(2),
		Coroutines:    8,
		YieldOverhead: 30 * sim.Nanosecond,
		ProbeOverhead: 0.04,
		DispatchCost:  70 * sim.Nanosecond,
		ParseCost:     40 * sim.Nanosecond,
		StatsPeriod:   sim.Micros(1),
		RTT:           sim.Micros(8),
		Balancer:      BalanceJSQMSQ,
		RXQueue:       2048,
	}
}

// TQ is the two-level-scheduling machine (§3.2): a dispatcher that only
// load-balances, and workers that interleave job quanta with forced
// multitasking.
type TQ struct {
	P    TQParams
	name string
}

// NewTQ returns a TQ machine with the given parameters.
func NewTQ(p TQParams) *TQ {
	if p.Workers <= 0 || p.Coroutines <= 0 {
		panic("cluster: TQ needs at least one worker and one coroutine")
	}
	if p.Quantum <= 0 && !p.FCFS {
		panic("cluster: TQ quantum must be positive")
	}
	if p.Discipline != "" {
		parseDiscipline(p.Discipline, pifo.RR) // panic on a bad name now
	}
	return &TQ{P: p, name: disciplineName("TQ", p.Discipline)}
}

// Named sets the report name (used for variants like "TQ-IC").
func (t *TQ) Named(name string) *TQ { t.name = name; return t }

// Name implements Machine.
func (t *TQ) Name() string { return t.name }

// tqWorker is one simulated worker core. Both queues are pifo heaps
// under the run's discipline: runnable replaces the old FIFO/LASQueue
// pair (rr reproduces FIFO's order exactly, las the LASQueue's), and
// waiting stays effectively FIFO under the defaults because dispatch
// pushes are monotonic in time.
type tqWorker struct {
	runnable pifo.Queue[*job] // busy coroutines, discipline order
	waiting  pifo.Queue[*job] // dispatch queue (no free coroutine yet)
	idle     int              // idle coroutine count
	running  bool
	// The one in-flight quantum: step stages it here and schedules
	// onEnd, which is bound once — a worker executes one quantum
	// at a time, so one slot per worker carries what a closure per
	// quantum used to capture.
	cur   *job
	slice sim.Time // how long cur runs this quantum
	q     sim.Time // the quantum cur was cut to (class-dependent under TQ-TIMING)
	end   sim.Time // when the quantum ends, before the yield switch
	onEnd func()   // r.quantumEnd(w)
	// Worker-side statistics the dispatcher reads (§4). finished wraps
	// like a fixed-width counter would; the dispatcher recovers totals
	// by deltas.
	finished  uint64
	curQuanta int64 // quanta serviced for current (unfinished) jobs
}

// pushRunnable enqueues a busy coroutine in discipline order.
//
//simvet:hotpath
func (r *tqRun) pushRunnable(wk *tqWorker, j *job) {
	wk.runnable.Push(j, r.rank.rank(j, r.eng.Now()))
}

// popRunnable dequeues the next coroutine to resume.
//
//simvet:hotpath
func (r *tqRun) popRunnable(wk *tqWorker) (*job, bool) {
	j, _, ok := wk.runnable.Pop()
	return j, ok
}

type tqRun struct {
	machineRun
	m       *TQ
	rand    *rng.Rand
	rank    ranker
	workers []tqWorker
	tracker *core.LoadTracker
	bal     core.Balancer

	disp []tqDispatcher // the dispatcher cores
	rss  core.RSS
	// lastRefresh is when the dispatcher last read the worker counters;
	// its load view is stale by up to StatsPeriod (§4's periodic reads).
	lastRefresh sim.Time

	// achieved accumulates realized preemption intervals (full quanta
	// plus the yield switch), for the Figure 16 accuracy measurement.
	achieved stats.RunningMean
}

// tqDispatcher is one dispatcher core: busyUntil is when it frees up.
// Requests in service wait in q and each schedules the core's one bound
// callback, onHandOff, at its hand-off instant: busyUntil never
// decreases and the engine is FIFO at equal timestamps, so the callbacks
// fire in queue order and each pops its own request.
type tqDispatcher struct {
	busyUntil sim.Time
	q         core.FIFO[*job]
	onHandOff func() // r.handOff(d)
}

// Run implements Machine.
func (t *TQ) Run(cfg RunConfig) *Result {
	res, _ := t.run(cfg)
	return res
}

// RunMeasured also returns the realized preemption intervals — the
// quantum sizes the workers actually schedule, compared against the
// target in the §5.6 scalability experiment.
func (t *TQ) RunMeasured(cfg RunConfig) (*Result, stats.RunningMean) {
	return t.run(cfg)
}

// newRun fills r — zero, or recycled from any TQ variant's run — and
// returns the workload generator. The RNG draw order here is part of
// the machine's identity: balancer splits first, then the workload
// generator's split — node construction keeps the generator draw (and
// discards it) so both forms see the same per-seed stream layout.
func (t *TQ) newRun(r *tqRun, cfg RunConfig) *workload.Stream {
	r.m = t
	r.rand = rng.New(cfg.Seed)
	r.rank = newRanker(parseDiscipline(t.P.Discipline, pifo.RR), cfg)
	r.tracker = core.NewLoadTracker(t.P.Workers, 32)
	r.workers = resize(r.workers, t.P.Workers, func(w int, wk *tqWorker) { wk.onEnd = func() { r.quantumEnd(w) } })
	for w := range r.workers {
		wk := &r.workers[w]
		wk.runnable.Reset()
		wk.waiting.Reset()
		*wk = tqWorker{runnable: wk.runnable, waiting: wk.waiting, idle: t.P.Coroutines, onEnd: wk.onEnd}
	}
	switch t.P.Balancer {
	case BalanceJSQMSQ:
		r.bal = &core.JSQ{}
	case BalanceJSQRandom:
		r.bal = &core.JSQ{RandomTie: r.rand.Split()}
	case BalanceRandom:
		r.bal = core.Random{R: r.rand.Split()}
	case BalancePowerTwo:
		r.bal = core.PowerOfTwo{R: r.rand.Split()}
	default:
		panic("cluster: unknown balancer kind")
	}
	gen := cfg.Stream(r.rand.Split())
	r.lastRefresh = -t.P.StatsPeriod // force a refresh on first dispatch
	r.disp = resize(r.disp, max(t.P.Dispatchers, 1), func(d int, dp *tqDispatcher) { dp.onHandOff = func() { r.handOff(d) } })
	for d := range r.disp {
		r.disp[d].q.Reset()
		r.disp[d].busyUntil = 0
	}
	r.achieved = stats.RunningMean{}
	return gen
}

func (t *TQ) run(cfg RunConfig) (*Result, stats.RunningMean) {
	r := tqRuns.get()
	defer tqRuns.put(r, &r.machineRun) // after the return values copy r.achieved
	gen := t.newRun(r, cfg)
	r.init(cfg, r, gen, t.P.RXQueue, len(r.disp))
	return r.run(t.name, t.P.RTT), r.achieved
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode). The node draws no arrivals of
// its own — the embedding layer injects them.
func (t *TQ) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(tqRun)
	t.newRun(r, cfg)
	r.attach(eng, cfg, r, t.P.RXQueue, len(r.disp))
	r.bind(t.name, t.P.Workers, t.P.RTT)
	return r
}

// refreshView re-reads worker counters if the dispatcher's view is
// older than StatsPeriod, modelling §4's periodic counter reads with
// their inherent staleness.
func (r *tqRun) refreshView() {
	now := r.eng.Now()
	if now-r.lastRefresh < r.m.P.StatsPeriod {
		return
	}
	r.lastRefresh = now
	for w := range r.workers {
		r.tracker.ObserveFinished(w, r.workers[w].finished)
		r.tracker.ObserveQuanta(w, r.workers[w].curQuanta)
	}
}

// admitLane implements machinePolicy: RSS steers the packet to one of
// the dispatcher cores (one core in the paper's configuration; §6
// discusses scaling them out).
func (r *tqRun) admitLane(req workload.Request) int {
	if len(r.disp) > 1 {
		return r.rss.Steer(req.ID, len(r.disp))
	}
	return 0
}

// dropCore implements machinePolicy: TQ's RX lanes are dispatcher
// rings, which all share the timeline's one dispatcher track.
func (r *tqRun) dropCore(int) int32 { return obs.CoreDispatcher }

// inflate implements machinePolicy: compiler-inserted probes tax every
// job's service time by ProbeOverhead.
func (r *tqRun) inflate(s sim.Time) sim.Time {
	return s + sim.Time(float64(s)*r.m.P.ProbeOverhead)
}

// admit implements machinePolicy: the dispatcher, a serial server,
// spends DispatchCost on the request and then forwards it. The RX-ring
// slot is held until the dispatcher picks the request up.
//
//simvet:hotpath
func (r *tqRun) admit(d int, j *job) {
	dp := &r.disp[d]
	if now := r.eng.Now(); dp.busyUntil < now {
		dp.busyUntil = now
	}
	dp.busyUntil += r.m.P.DispatchCost
	dp.q.Push(j)
	r.eng.At(dp.busyUntil, dp.onHandOff)
}

// handOff is dispatcher d's bound callback: the head request's
// processing delay has elapsed, so it frees its RX slot and moves on to
// a worker.
//
//simvet:hotpath
func (r *tqRun) handOff(d int) {
	j, _ := r.disp[d].q.Pop()
	r.adm.release(d, j.tenant)
	r.dispatch(j)
}

// dispatch runs after the dispatcher's processing delay: pick a worker
// with the blind balancing policy and push onto its dispatch queue.
//
//simvet:hotpath
func (r *tqRun) dispatch(j *job) {
	r.refreshView()
	w := r.bal.Pick(r.tracker)
	r.tracker.Assign(w)
	j.worker = w
	r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(w))
	wk := &r.workers[w]
	wk.waiting.Push(j, r.rank.rank(j, r.eng.Now()))
	if !wk.running {
		r.kick(w)
	}
}

// kick starts the worker's scheduling loop if it has admittable work.
func (r *tqRun) kick(w int) {
	wk := &r.workers[w]
	if wk.running {
		return
	}
	wk.running = true
	r.step(w)
}

// step executes one scheduler-coroutine iteration on worker w: admit
// pending requests onto idle coroutines, then run one quantum of the
// head coroutine.
//
//simvet:hotpath
func (r *tqRun) step(w int) {
	wk := &r.workers[w]
	// Admission: the scheduler coroutine polls the dispatch queue when
	// it has idle coroutines (§4). Parsing costs CPU time, which delays
	// the next quantum.
	var admitCost sim.Time
	for wk.idle > 0 {
		j, _, ok := wk.waiting.Pop()
		if !ok {
			break
		}
		wk.idle--
		r.pushRunnable(wk, j)
		admitCost += r.m.P.ParseCost
	}
	j, ok := r.popRunnable(wk)
	if !ok {
		wk.running = false
		return
	}
	q := r.m.P.Quantum
	if r.m.P.QuantumForClass != nil {
		q = r.m.P.QuantumForClass(j.class)
	}
	slice := j.remain
	if !r.m.P.FCFS && slice > q {
		slice = q
	}
	// The quantum runs, then the task yields back to the scheduler
	// coroutine (one switch costs YieldOverhead). The job stops
	// executing — and, on its last quantum, its response leaves the
	// worker — at the quantum's end; the yield cost that follows is
	// scheduler overhead, charged to the worker but not to the job's
	// sojourn, so Finish and QuantumEnd share one timestamp.
	now := r.eng.Now()
	wk.cur, wk.slice, wk.q, wk.end = j, slice, q, now+admitCost+slice
	r.met.emit(now+admitCost, obs.QuantumStart, j.id, j.class, int32(w))
	r.eng.After(admitCost+slice+r.m.P.YieldOverhead, wk.onEnd)
}

// quantumEnd is worker w's bound callback: the quantum step staged has
// run and the task has yielded back to the scheduler coroutine. The job
// either completes or rejoins the run queue, and the next iteration
// starts.
//
//simvet:hotpath
func (r *tqRun) quantumEnd(w int) {
	wk := &r.workers[w]
	j, slice, q, end := wk.cur, wk.slice, wk.q, wk.end
	wk.cur = nil
	r.met.emit(end, obs.QuantumEnd, j.id, j.class, int32(w))
	if slice >= q && j.remain > q {
		// A true preemption: the realized interval includes the
		// switch cost — what Figure 16 compares to the target.
		r.achieved.Add(float64(slice + r.m.P.YieldOverhead))
	}
	j.remain -= slice
	j.quanta++
	wk.curQuanta++
	if j.remain <= 0 {
		// Completion: the worker replies directly to the client
		// (no dispatcher involvement) and updates its counters.
		wk.curQuanta -= j.quanta
		wk.finished++
		wk.idle++
		r.met.emit(end, obs.Finish, j.id, j.class, int32(w))
		r.met.record(j, end)
		r.pool.put(j)
	} else {
		// The probe fired and the coroutine yielded voluntarily —
		// TQ's forced multitasking shows up as probe-yield, never as
		// an interrupt-style preempt.
		r.met.emit(end, obs.ProbeYield, j.id, j.class, int32(w))
		r.pushRunnable(wk, j)
	}
	r.step(w)
}

var _ Machine = (*TQ)(nil)

// Variant constructors for the §5.4 breakdown (Figures 11 and 12).

// NewTQIC returns the TQ-IC variant: forced multitasking driven by the
// state-of-the-art instruction-counter instrumentation, whose probing
// inflates service times by ≈60% (§3.1's RocksDB GET measurement).
func NewTQIC(p TQParams) *TQ {
	p.ProbeOverhead = 0.60
	return NewTQ(p).Named("TQ-IC")
}

// NewTQSlowYield returns the TQ-SLOW-YIELD variant: a 1µs delay added
// to every coroutine yield.
func NewTQSlowYield(p TQParams) *TQ {
	p.YieldOverhead += sim.Micros(1)
	return NewTQ(p).Named("TQ-SLOW-YIELD")
}

// NewTQTiming returns the TQ-TIMING variant for the RocksDB workload:
// inaccurate preemption timing emulated with 1µs quanta for GET (class
// 0) and 3µs for SCAN (class 1), against the 2µs target.
func NewTQTiming(p TQParams) *TQ {
	p.QuantumForClass = func(c workload.Class) sim.Time {
		if c == 0 {
			return sim.Micros(1)
		}
		return sim.Micros(3)
	}
	return NewTQ(p).Named("TQ-TIMING")
}

// NewTQRand returns the TQ-RAND variant (random load balancing).
func NewTQRand(p TQParams) *TQ {
	p.Balancer = BalanceRandom
	return NewTQ(p).Named("TQ-RAND")
}

// NewTQPowerTwo returns the TQ-POWER-TWO variant.
func NewTQPowerTwo(p TQParams) *TQ {
	p.Balancer = BalancePowerTwo
	return NewTQ(p).Named("TQ-POWER-TWO")
}

// NewTQFCFS returns the TQ-FCFS variant (run-to-completion workers).
func NewTQFCFS(p TQParams) *TQ {
	p.FCFS = true
	return NewTQ(p).Named("TQ-FCFS")
}
