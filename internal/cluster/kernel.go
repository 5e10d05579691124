package cluster

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the machine kernel: the substrate every machine model
// runs on. A scheduling run — TQ, Shinjuku, Caladan, CentralizedPS,
// d-FCFS, or any future machine — is the same skeleton everywhere:
//
//	validate config → build engine/metrics/admission/generator →
//	pump open-loop arrivals → gate each at the RX ring →
//	hand admitted jobs to the system → drain → Result
//
// machineRun owns that skeleton once; machinePolicy is the small
// interface for the parts that actually differ per system (where an
// arriving request is steered, how its demand is inflated, and what
// the system does with an admitted job). A new machine is a run struct
// embedding machineRun plus policy methods — typically well under a
// hundred lines (see dfcfs.go for the template) — and inherits arrival
// pumping, drop bookkeeping, per-class metrics, obs emission, and the
// conservation law Offered == Completed + Dropped by construction.
//
// The kernel has two front doors. init binds a standalone run: the
// machine owns its engine and generator, and run() drives the
// simulation to a Result — the Machine.Run path. attach instead binds
// the run to an engine owned by an embedding layer (the rack fleet in
// internal/rack), which pumps a shared arrival stream itself and
// delivers this machine's slice of it through Inject; see node.go.

// runPool recycles one machine family's standalone run structs (variants
// share their family's), so a run keeps the engine, job freelist, queues
// and callbacks the last one grew; newRun fills zero or recycled alike.
type runPool[T any] struct{ p sync.Pool }

// maxPooledJobs bounds the backlog a pooled struct keeps: put drops one
// past 64 Ki jobs, an overload whose backlog grew with its length (Full
// scale: 1.19 M on Caladan-directpath) and which, kept per family, raised
// Full tqsim -fig all peak RSS by half — like a burst-sized node pool.
const maxPooledJobs = 1 << 16

var (
	tqRuns     runPool[tqRun]
	sjRuns     runPool[sjRun]
	calRuns    runPool[calRun]
	ctRuns     runPool[ctRun]
	dfRuns     runPool[dfRun]
	oracleRuns runPool[oracleRun]
	sinkRuns   runPool[sinkRun]
)

func (p *runPool[T]) get() *T {
	if r, ok := p.p.Get().(*T); ok {
		return r
	}
	return new(T)
}

func (p *runPool[T]) put(r *T, k *machineRun) {
	if len(k.pool.free) <= maxPooledJobs {
		p.p.Put(r)
	}
}

// resize returns s at length n. An array with room is kept, and with it
// its elements' queue storage and callbacks; otherwise a new one is made
// and bind binds each element's callbacks, once.
func resize[T any](s []T, n int, bind func(i int, e *T)) []T {
	if cap(s) < n {
		s = make([]T, n)
		for i := range s {
			bind(i, &s[i])
		}
	}
	return s[:n]
}

// machinePolicy is the per-system half of a scheduling run. The kernel
// calls it from the arrival path; everything after admission — worker
// queues, preemption, balancing — lives in the implementing run struct
// and its own engine callbacks.
type machinePolicy interface {
	// admitLane steers an arriving request to one of the admission
	// gate's RX lanes (machines with a single bounded stage always
	// return 0; TQ returns the RSS-steered dispatcher core).
	admitLane(req workload.Request) int
	// dropCore names the obs track a drop at the given lane lands on.
	// Machines whose RX lanes are per-worker NIC queues (d-FCFS) return
	// the worker core; machines with a central bounded stage return
	// obs.CoreDispatcher. The kernel books every drop through this, so
	// a timeline attributes the loss to the ring that actually overflowed.
	dropCore(lane int) int32
	// inflate maps a request's service demand to the job's simulated
	// demand — probe-overhead inflation for TQ, per-request packet
	// processing for directpath machines, identity elsewhere.
	inflate(service sim.Time) sim.Time
	// admit takes ownership of an admitted job. The job's RX-ring slot
	// on lane stays occupied until the machine calls
	// adm.release(lane, j.tenant) — for serial-server stages that is
	// when the stage picks the request up; unbounded gates may release
	// immediately or never.
	admit(lane int, j *job)
}

// basePolicy supplies the common policy defaults — single RX lane,
// dispatcher-attributed drops, uninflated demand — so most machines
// only implement admit.
type basePolicy struct{}

func (basePolicy) admitLane(workload.Request) int { return 0 }
func (basePolicy) dropCore(int) int32             { return obs.CoreDispatcher }
func (basePolicy) inflate(s sim.Time) sim.Time    { return s }

// Pump drives one arrival stream: it pulls requests from a composed
// workload.Stream and delivers each at its arrival instant, until the
// first arrival past the horizon. The pump is a chain — each delivery
// schedules the next — with a single staged request and one reused
// closure, so pumping allocates nothing per arrival (a fresh
// `func() { deliver(req) }` per request was the pump's one
// steady-state allocation; see TestArrivalPumpSteadyStateAllocs).
//
// Open-loop streams never block; a closed-loop stream can run out of
// pending arrivals (every user waiting on an in-flight request), in
// which case the pump idles until Done reports a retirement that
// unblocked the stream.
//
// Every standalone machine run pumps through this type, and so does
// the rack fleet (internal/rack), whose deliver routes each request to
// one machine node — the one arrival pump shared by every layer.
type Pump struct {
	eng     *sim.Engine
	stream  *workload.Stream
	horizon sim.Time
	deliver func(workload.Request)
	// next stages the one in-flight arrival for fn.
	next workload.Request
	fn   func()
	// idle marks a blocked closed-loop stream awaiting feedback.
	idle bool
}

// NewPump returns a pump feeding deliver from stream on eng. Requests
// stop arriving at the horizon, but events already in the engine (jobs
// in flight) still drain. Start schedules the first arrival.
func NewPump(eng *sim.Engine, stream *workload.Stream, horizon sim.Time, deliver func(workload.Request)) *Pump {
	p := &Pump{eng: eng, stream: stream, horizon: horizon, deliver: deliver}
	p.fn = func() {
		// Copy the staged request first: chaining the next arrival
		// overwrites the stage before deliver runs.
		req := p.next
		p.Start()
		p.deliver(req)
	}
	return p
}

// Start schedules the next arrival (the first, when called from
// outside the chain). Requests past the horizon end the stream; a
// blocked closed-loop stream parks the pump until Done.
//
//simvet:hotpath
func (p *Pump) Start() {
	req, ok := p.stream.Next()
	if !ok {
		p.idle = true
		return
	}
	if req.Arrival > p.horizon {
		return
	}
	p.next = req
	p.eng.At(req.Arrival, p.fn)
}

// Done informs the pump's stream that a request retired (completed or
// dropped) at instant t — the feedback edge closed-loop arrival
// processes need. If the stream was blocked and now has an arrival
// pending, the pump resumes the chain. Open-loop streams make this a
// single boolean check.
//
//simvet:hotpath
func (p *Pump) Done(t sim.Time) {
	if p.stream.Done(t) && p.idle {
		p.idle = false
		p.Start()
	}
}

// ClosedLoop reports whether the pump's stream needs retirement
// feedback to make progress.
func (p *Pump) ClosedLoop() bool { return p.stream.ClosedLoop() }

// genTimers schedules callbacks that a generation counter may make
// stale before they fire. The engine has no cancellation, so a machine
// whose cores race two outcomes (Shinjuku's completion against its
// preemption timer, the oracle's slice against an SRPT preemption) lets
// the loser fire and drops it on a generation mismatch. Any number of
// stale events can be pending per core, so their arguments cannot live
// on the core the way a single in-flight quantum does: each takes a
// record from a per-run freelist, as jobPool does for jobs, and the
// record carries a callback bound once, when the record is first made.
type genTimers struct {
	fire func(kind uint8, core int, gen uint64) // the machine's handler
	free []*genTimer
}

type genTimer struct {
	kind uint8
	core int
	gen  uint64
	fn   func() // set once by grow
}

// after schedules fire(kind, core, gen) on eng, d from now. The handler
// decides staleness; the record is back on the freelist before it runs.
//
//simvet:hotpath
func (t *genTimers) after(eng *sim.Engine, d sim.Time, kind uint8, core int, gen uint64) {
	if len(t.free) == 0 {
		t.grow()
	}
	e := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	e.kind, e.core, e.gen = kind, core, gen
	eng.After(d, e.fn)
}

// grow adds one record to the freelist; the pool settles at the
// high-water count of pending timers.
func (t *genTimers) grow() {
	e := &genTimer{}
	e.fn = func() {
		kind, core, gen := e.kind, e.core, e.gen
		t.free = append(t.free, e)
		t.fire(kind, core, gen)
	}
	t.free = append(t.free, e)
}

// machineRun is the shared state of one scheduling run. Machine run
// structs embed it and reach the engine, metrics, admission gate, and
// job pool through the embedded fields, exactly as they did when each
// machine carried its own copy of this skeleton.
type machineRun struct {
	eng  *sim.Engine
	cfg  RunConfig
	met  *metrics
	adm  *admission
	pool jobPool

	pol machinePolicy

	// pump is the run's arrival source in standalone mode; nil for an
	// attached node, whose embedding layer pumps a shared stream.
	pump *Pump

	// onDrop, when non-nil, observes the class of every admission drop
	// (Node.OnDrop) — the retirement feed for routers tracking placed
	// work.
	onDrop func(workload.Class)

	// feedback marks a closed-loop standalone run: every retirement
	// (completion via the job pool, drop via inject) is reported to the
	// pump so blocked users can issue their next request.
	feedback bool

	// system, workers, and rtt describe the machine for Result
	// collection; set by init/bind.
	system  string
	workers int
	rtt     sim.Time
}

// attach assembles the substrate on an externally owned engine: the
// node form of a run, used by embedding layers (the rack fleet). The
// node has no generator and no pump — arrivals come from the embedder
// through inject — but gets the full admission, metrics, and obs
// bookkeeping of a standalone run. rxLimit <= 0 models an unbounded RX
// stage; lanes is the number of independent RX rings.
func (k *machineRun) attach(eng *sim.Engine, cfg RunConfig, pol machinePolicy, rxLimit, lanes int) {
	cfg.validate()
	k.eng = eng
	k.cfg = cfg
	k.met = newMetrics(cfg)
	k.adm = k.met.admission(rxLimit, lanes)
	k.pol = pol
}

// init assembles the substrate for a standalone run: attach on the
// run's own engine (reset), plus the machine's arrival pump. The caller
// materializes the stream itself — via cfg.Stream, handing it the RNG
// stream of its choice — so the per-machine RNG draw order, which fixes
// the whole trajectory, is explicit in the machine's code, not hidden in
// the kernel. For a closed-loop stream, init also wires the retirement
// feedback: completions report through the job pool's return hook, drops
// through inject.
func (k *machineRun) init(cfg RunConfig, pol machinePolicy, stream *workload.Stream, rxLimit, lanes int) {
	if k.eng == nil {
		k.eng = sim.New()
	}
	k.eng.Reset()
	k.attach(k.eng, cfg, pol, rxLimit, lanes)
	// Only the freelist survives: the last run's hooks would chain in.
	k.pool = jobPool{free: k.pool.free}
	k.onDrop, k.feedback = nil, stream.ClosedLoop()
	k.pump = NewPump(k.eng, stream, cfg.Duration, k.inject)
	if k.feedback {
		prev := k.pool.onPut
		k.pool.onPut = func(j *job) {
			if prev != nil {
				prev(j)
			}
			k.pump.Done(k.eng.Now())
		}
	}
}

// bind records the machine identity a node reports through Collect —
// the display name, worker-core count, and modelled network RTT.
func (k *machineRun) bind(system string, workers int, rtt sim.Time) {
	k.system = system
	k.workers = workers
	k.rtt = rtt
}

// run drives a standalone simulation: prime the arrival pump, execute
// to drain, collect the Result, and release the struct for its pool.
func (k *machineRun) run(system string, rtt sim.Time) *Result {
	k.bind(system, k.workers, rtt)
	k.pump.Start()
	k.eng.Run()
	res := k.met.result(system, rtt)
	res.Events = k.eng.Executed()
	k.release()
	return res
}

// release drops what the Result or caller owns — config and recorder,
// metrics, admission gate, pump — so a pooled struct holds storage only.
func (k *machineRun) release() {
	k.cfg, k.met, k.adm, k.pump, k.pol = RunConfig{}, nil, nil, nil, nil
}

// inject models the request hitting the NIC RX stage: steer to an RX
// lane, gate at the bounded ring (a full ring drops the packet and
// books it, attributed to the lane's core), build the pooled job, and
// hand it to the machine's policy. Standalone runs reach it through
// the pump; attached nodes through Inject.
//
//simvet:hotpath
func (k *machineRun) inject(req workload.Request) {
	lane := k.pol.admitLane(req)
	k.met.emit(req.Arrival, obs.Arrive, req.ID, req.Class, obs.CoreLoadgen)
	// The RX ring bounds the stage's backlog in requests — a ring holds
	// descriptors, not time — so the bound applies even when the stage's
	// per-request cost is zero. The request occupies its slot until the
	// machine releases it.
	if !k.adm.tryAdmit(lane, req.Tenant, req.Arrival) {
		k.met.emit(req.Arrival, obs.Drop, req.ID, req.Class, k.pol.dropCore(lane))
		k.met.tenantDrop(req)
		if k.onDrop != nil {
			k.onDrop(req.Class)
		}
		if k.feedback {
			// A drop retires the request too: the closed-loop user saw a
			// rejection and moves on to its think time.
			k.pump.Done(req.Arrival)
		}
		return
	}
	j := k.pool.get()
	j.id = req.ID
	j.class = req.Class
	j.tenant = req.Tenant
	j.arrival = req.Arrival
	j.base = req.Service
	j.service = k.pol.inflate(req.Service)
	j.remain = j.service
	k.pol.admit(lane, j)
}
