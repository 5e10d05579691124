package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ShinjukuParams configures the Shinjuku baseline model: centralized
// single-queue scheduling where a dispatcher core processes packets,
// assigns jobs, and preempts workers with Dune-based hardware
// interrupts (§5.1, [34]).
//
// The cost constants are calibrated to the paper's observations: a
// centralized dispatcher core sustains ≈5Mrps of plain request
// processing (§6), and the interrupt path costs ≈1µs on the preempted
// worker (§1). Each constant is an explicit knob so ablations can test
// sensitivity.
type ShinjukuParams struct {
	// Workers is the number of worker cores (paper: 16).
	Workers int
	// Quantum is the preemption interval. The paper runs Shinjuku at
	// its per-workload sweet spot: 5µs for the bimodals, 10µs for
	// TPC-C and Exp(1), 15µs for RocksDB.
	Quantum sim.Time
	// NetCost is dispatcher time per incoming request (RX, parse,
	// enqueue).
	NetCost sim.Time
	// RespCost is dispatcher/net-worker time per outgoing response.
	RespCost sim.Time
	// SchedCost is dispatcher time to pick and hand a job to a worker.
	SchedCost sim.Time
	// IPICost is dispatcher time to post one preemption interrupt (a
	// posted-interrupt write is much cheaper than packet processing).
	IPICost sim.Time
	// RXQueue bounds the backlog of unprocessed dispatcher work, in
	// requests; arrivals beyond it are dropped, as a saturated NIC RX
	// ring drops packets. Without this bound an overloaded centralized
	// dispatcher would starve its scheduling ops behind an unbounded
	// packet backlog, which no real system does.
	RXQueue int
	// InterruptOverhead is worker time lost per received interrupt
	// (ring transition, context save/restore — ≈1µs under Dune).
	InterruptOverhead sim.Time
	// RTT is the simulated network round trip for end-to-end latency.
	RTT sim.Time
}

// NewShinjukuParams returns the calibrated defaults with the given
// quantum.
func NewShinjukuParams(quantum sim.Time) ShinjukuParams {
	return ShinjukuParams{
		Workers:           16,
		Quantum:           quantum,
		NetCost:           190 * sim.Nanosecond,
		RespCost:          90 * sim.Nanosecond,
		SchedCost:         110 * sim.Nanosecond,
		IPICost:           25 * sim.Nanosecond,
		InterruptOverhead: sim.Micros(1),
		RTT:               sim.Micros(8),
		RXQueue:           2048,
	}
}

// Shinjuku is the centralized interrupt-driven baseline.
type Shinjuku struct {
	P    ShinjukuParams
	name string
}

// NewShinjuku returns a Shinjuku machine.
func NewShinjuku(p ShinjukuParams) *Shinjuku {
	if p.Workers <= 0 || p.Quantum <= 0 {
		panic("cluster: invalid Shinjuku parameters")
	}
	return &Shinjuku{P: p, name: "Shinjuku"}
}

// Name implements Machine.
func (s *Shinjuku) Name() string { return s.name }

type sjWorker struct {
	busy bool
	// gen invalidates stale completion/preemption events after the
	// worker switches jobs.
	gen     uint64
	current *job
	started sim.Time // when the current dispatch began running
	// interrupted is the preempted job sitting out the interrupt
	// overhead; onResume (bound once) requeues it. The worker is
	// neither idle nor busy meanwhile, so there is at most one.
	interrupted *job
	onResume    func() // r.resume(w)
}

type sjRun struct {
	machineRun
	basePolicy
	m       *Shinjuku
	queue   core.FIFO[*job]
	workers []sjWorker
	idle    []int // indices of idle workers

	// The dispatcher core is a serial server over two op classes:
	// scheduling work (assignments, IPIs) takes priority over packet
	// processing, as the real dispatcher's loop checks preemption
	// timers and worker states before polling more packets. Without
	// the priority, an overloaded dispatcher would starve scheduling
	// behind its RX backlog entirely.
	schedOps core.FIFO[dispOp]
	netOps   core.FIFO[dispOp]
	dispBusy bool
	// serving is the one op in service; onServed (bound per run)
	// applies it when its cost has elapsed.
	serving  dispOp
	onServed func() // r.served()

	// timers carries the per-mount completion and quantum-expiry
	// events, which a worker's generation may outdate before they fire.
	timers genTimers

	// achieved accumulates the realized preemption intervals, used by
	// the Figure 16 dispatcher-scalability experiment.
	achieved stats.RunningMean
}

// dispOp is one unit of dispatcher work, typed rather than a closure so
// queueing one allocates nothing.
type dispOp struct {
	kind dispOpKind
	w    int    // opAssign, opIPI: the worker
	gen  uint64 // opIPI: the mount the interrupt was aimed at
	j    *job   // opNet, opAssign: the request
}

type dispOpKind uint8

const (
	opNet    dispOpKind = iota // RX, parse, enqueue an incoming request
	opResp                     // send a response out
	opAssign                   // hand a queued job to an idle worker
	opIPI                      // post a preemption interrupt
)

// sched reports whether the op is scheduling work, which the dispatcher
// serves before packet processing.
func (k dispOpKind) sched() bool { return k == opAssign || k == opIPI }

// Kinds of generation-guarded worker timers (genTimers).
const (
	sjComplete uint8 = iota // the mounted job's natural completion
	sjExpiry                // the mount's quantum ran out
)

// dispatcherOp enqueues work on the dispatcher core.
//
//simvet:hotpath
func (r *sjRun) dispatcherOp(op dispOp) {
	if op.kind.sched() {
		r.schedOps.Push(op)
	} else {
		r.netOps.Push(op)
	}
	r.serveDispatcher()
}

// cost is the dispatcher time an op of the given kind takes.
func (r *sjRun) cost(k dispOpKind) sim.Time {
	switch k {
	case opNet:
		return r.m.P.NetCost
	case opResp:
		return r.m.P.RespCost
	case opAssign:
		return r.m.P.SchedCost
	default:
		return r.m.P.IPICost
	}
}

//simvet:hotpath
func (r *sjRun) serveDispatcher() {
	if r.dispBusy {
		return
	}
	op, ok := r.schedOps.Pop()
	if !ok {
		op, ok = r.netOps.Pop()
	}
	if !ok {
		return
	}
	r.dispBusy = true
	r.serving = op
	r.eng.After(r.cost(op.kind), r.onServed)
}

// served is the dispatcher's bound callback: the op in service takes
// effect and the dispatcher turns to the next one.
//
//simvet:hotpath
func (r *sjRun) served() {
	op := r.serving
	r.serving = dispOp{}
	switch op.kind {
	case opNet:
		// The request held its RX slot (the one lane) until now.
		r.adm.release(0, op.j.tenant)
		r.enqueue(op.j)
	case opAssign:
		r.startOn(op.w, op.j)
	case opIPI:
		// Skip if the job finished while the IPI was in flight.
		if r.workers[op.w].gen == op.gen {
			r.preempt(op.w)
		}
	}
	r.dispBusy = false
	r.serveDispatcher()
}

// Run implements Machine.
func (s *Shinjuku) Run(cfg RunConfig) *Result {
	res, _ := s.run(cfg)
	return res
}

// RunMeasured also returns the realized preemption intervals (the
// "average quantum scheduled by the dispatcher" of §5.6).
func (s *Shinjuku) RunMeasured(cfg RunConfig) (*Result, stats.RunningMean) {
	return s.run(cfg)
}

// newRun fills r, zero or recycled; only storage survives a recycling.
func (s *Shinjuku) newRun(r *sjRun) {
	r.m = s
	r.queue.Reset()
	r.schedOps.Reset()
	r.netOps.Reset()
	r.dispBusy, r.serving = false, dispOp{}
	r.onServed = r.served
	r.timers.fire = r.onTimer
	r.achieved = stats.RunningMean{}
	r.workers = resize(r.workers, s.P.Workers, func(w int, wk *sjWorker) { wk.onResume = func() { r.resume(w) } })
	r.idle = r.idle[:0]
	for w := range r.workers {
		r.workers[w] = sjWorker{onResume: r.workers[w].onResume}
		r.idle = append(r.idle, w)
	}
}

func (s *Shinjuku) run(cfg RunConfig) (*Result, stats.RunningMean) {
	r := sjRuns.get()
	defer sjRuns.put(r, &r.machineRun) // after the return values copy r.achieved
	s.newRun(r)
	// A saturated dispatcher drops packets at the RX ring. The ring
	// holds incoming requests only — outgoing responses use their own
	// TX descriptors.
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), s.P.RXQueue, 1)
	return r.run(s.Name(), s.P.RTT), r.achieved
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode).
func (s *Shinjuku) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := new(sjRun)
	s.newRun(r)
	r.attach(eng, cfg, r, s.P.RXQueue, 1)
	r.bind(s.Name(), s.P.Workers, s.P.RTT)
	return r
}

// admit implements machinePolicy: the request occupies its RX slot
// until the dispatcher's packet-processing op finishes with it.
func (r *sjRun) admit(_ int, j *job) {
	r.dispatcherOp(dispOp{kind: opNet, j: j})
}

// enqueue adds a job to the central queue and, if a worker is idle,
// issues the dispatcher's assignment op.
func (r *sjRun) enqueue(j *job) {
	r.queue.Push(j)
	r.tryAssign()
}

func (r *sjRun) tryAssign() {
	if len(r.idle) == 0 || r.queue.Len() == 0 {
		return
	}
	w := r.idle[len(r.idle)-1]
	r.idle = r.idle[:len(r.idle)-1]
	j, _ := r.queue.Pop()
	r.dispatcherOp(dispOp{kind: opAssign, w: w, j: j})
}

// startOn begins executing j on worker w. Two events race: natural
// completion, and a preemption interrupt that the dispatcher posts at
// quantum expiry (the interrupt lands late if the dispatcher is busy —
// the job keeps running meanwhile, which is exactly the quantum
// inflation Figure 16 measures).
//
//simvet:hotpath
func (r *sjRun) startOn(w int, j *job) {
	wk := &r.workers[w]
	wk.busy = true
	wk.gen++
	wk.current = j
	wk.started = r.eng.Now()
	// Every mount is a fresh dispatcher decision — a preempted job is
	// re-dispatched, unlike TQ where it stays resident on its worker.
	r.met.emit(wk.started, obs.Dispatch, j.id, j.class, int32(w))
	r.met.emit(wk.started, obs.QuantumStart, j.id, j.class, int32(w))

	r.timers.after(r.eng, j.remain, sjComplete, w, wk.gen)
	if j.remain > r.m.P.Quantum {
		r.timers.after(r.eng, r.m.P.Quantum, sjExpiry, w, wk.gen)
	}
}

// onTimer handles a worker timer armed by startOn; a generation
// mismatch means the worker has moved on and the event is stale.
//
//simvet:hotpath
func (r *sjRun) onTimer(kind uint8, w int, gen uint64) {
	wk := &r.workers[w]
	if wk.gen != gen {
		// sjComplete: preempted before completing. sjExpiry: completed
		// first (cannot happen given remain>quantum, but stay safe).
		return
	}
	if kind == sjComplete {
		r.complete(w, wk.current)
		return
	}
	// The dispatcher posts the IPI when it gets to this op; until then
	// the worker keeps executing the job.
	r.dispatcherOp(dispOp{kind: opIPI, w: w, gen: gen})
}

func (r *sjRun) complete(w int, j *job) {
	wk := &r.workers[w]
	wk.gen++
	wk.busy = false
	wk.current = nil
	r.met.emit(r.eng.Now(), obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(r.eng.Now(), obs.Finish, j.id, j.class, int32(w))
	r.met.record(j, r.eng.Now())
	r.pool.put(j)
	// Response goes out through the networking half of the centralized
	// core.
	r.dispatcherOp(dispOp{kind: opResp})
	r.idle = append(r.idle, w)
	r.tryAssign()
}

// preempt interrupts worker w: the job has run since wk.started, the
// worker pays the interrupt overhead, and the job rejoins the tail of
// the central queue.
//
//simvet:hotpath
func (r *sjRun) preempt(w int) {
	wk := &r.workers[w]
	j := wk.current
	ran := r.eng.Now() - wk.started
	if ran >= j.remain {
		// The job finished at exactly this instant; treat as complete.
		j.remain = 0
		r.complete(w, j)
		return
	}
	r.achieved.Add(float64(ran))
	j.remain -= ran
	wk.gen++
	wk.busy = false
	wk.current = nil
	r.met.emit(r.eng.Now(), obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(r.eng.Now(), obs.Preempt, j.id, j.class, int32(w))
	wk.interrupted = j
	r.eng.After(r.m.P.InterruptOverhead, wk.onResume)
}

// resume is worker w's bound callback: the interrupt overhead is paid,
// the preempted job rejoins the queue and the worker is idle again.
//
//simvet:hotpath
func (r *sjRun) resume(w int) {
	wk := &r.workers[w]
	r.queue.Push(wk.interrupted)
	wk.interrupted = nil
	r.idle = append(r.idle, w)
	r.tryAssign()
}

var _ Machine = (*Shinjuku)(nil)
