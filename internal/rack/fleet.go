package rack

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MachineCoreStride is the width of each machine's worker-core band in
// a shared fleet timeline: machine i's worker core c appears as core
// i*MachineCoreStride + c. The stride leaves room for any plausible
// per-machine core count while keeping bands easy to read off a trace.
const MachineCoreStride = 1 << 10

// Fleet describes a rack: N instances of one registry machine behind a
// routing policy. The zero value is invalid; all three fields are
// required. A Fleet value is stateless — Run builds everything per
// call — so one value is safe to share across sweep points and
// goroutines, and a cluster.Plan's machine factory can return the same
// Fleet for every point.
type Fleet struct {
	// N is the fleet size (machines).
	N int
	// Machine is the registry name of the per-node machine ("tq",
	// "shinjuku", ...). The entry must have a node form
	// (cluster.Entry.CanNode); of the catalogue only "caladan-ws" does
	// not.
	Machine string
	// Policy is the routing policy name (see RouterNames).
	Policy string
}

// Name implements cluster.Machine.
func (f Fleet) Name() string {
	return fmt.Sprintf("rack-%dx-%s-%s", f.N, f.Machine, f.Policy)
}

// Run implements cluster.Machine: it simulates the whole rack and
// returns the fleet-aggregate Result, so sweep drivers treat a fleet
// exactly like a single machine. Use RunFleet for per-machine results
// and placement counts.
func (f Fleet) Run(cfg cluster.RunConfig) *cluster.Result {
	return f.RunFleet(cfg).Fleet
}

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	// Fleet aggregates the whole rack: counts and goodput summed over
	// machines, latency samples pooled, conservation preserved
	// (Fleet.Offered == Fleet.Completed + Fleet.Dropped).
	Fleet *cluster.Result
	// PerMachine holds each machine's own Result, in machine order.
	// Events is zero there — simulation steps belong to the shared
	// engine and are reported once, on Fleet.
	PerMachine []*cluster.Result
	// Placed counts the requests the router sent to each machine.
	Placed []uint64
}

// RunFleet simulates the rack: one engine, one open-loop arrival
// stream at cfg.Rate, N machine nodes each seeded independently
// (rng.PointSeed of cfg.Seed and the machine index), and the routing
// policy deciding per request where it lands. cfg.Obs, when non-nil,
// receives the fleet-wide timeline with each machine's worker cores
// shifted into its own MachineCoreStride band.
func (f Fleet) RunFleet(cfg cluster.RunConfig) *FleetResult {
	return f.run(cfg, func(i int) obs.Recorder {
		if cfg.Obs == nil {
			return nil
		}
		return shiftRecorder{inner: cfg.Obs, base: int32(i) * MachineCoreStride}
	})
}

func (f Fleet) validate() cluster.Entry {
	if f.N <= 0 {
		panic("rack: Fleet.N must be at least 1")
	}
	entry := cluster.MustLookup(f.Machine)
	if !entry.CanNode() {
		panic("rack: machine " + f.Machine + " has no node form")
	}
	return entry
}

// run is the fleet engine room; nodeObs supplies machine i's recorder
// (nil for untraced). RunFleet and Trace differ only in that choice.
func (f Fleet) run(cfg cluster.RunConfig, nodeObs func(i int) obs.Recorder) *FleetResult {
	entry := f.validate()
	router, err := NewRouter(f.Policy, rng.New(rng.PointSeed(cfg.Seed, routerSeedTag)))
	if err != nil {
		panic(err.Error())
	}

	eng := sim.New()
	nodes := make([]cluster.Node, f.N)
	for i := range nodes {
		ncfg := cfg
		// The per-node rate is informational (each node's arrivals come
		// from the fleet stream), but Result.Config records it and
		// validate requires it positive.
		ncfg.Rate = cfg.Rate / float64(f.N)
		ncfg.Seed = rng.PointSeed(cfg.Seed, uint64(i))
		ncfg.Obs = nodeObs(i)
		nodes[i] = entry.NewNode(eng, ncfg)
	}
	view := &fleetView{nodes: nodes}

	// One composed stream feeds the whole rack (cfg.Stream is the single
	// stream constructor everywhere); the router decides where each
	// request lands.
	placed := make([]uint64, f.N)
	stream := cfg.Stream(rng.New(cfg.Seed))
	pump := cluster.NewPump(eng, stream, cfg.Duration, func(req workload.Request) {
		m := router.Route(req, view)
		if m < 0 || m >= len(nodes) {
			panic(fmt.Sprintf("rack: router %s routed to machine %d of %d", router.Name(), m, len(nodes)))
		}
		placed[m]++
		nodes[m].Inject(req)
	})

	// Node retirement hooks serve two consumers: routers that track
	// placed work, and — for closed-loop arrival processes — the shared
	// pump, whose users wait for their request to retire anywhere in the
	// fleet before thinking and issuing again.
	ob, observing := router.(feedbackObserver)
	closed := stream.ClosedLoop()
	if observing || closed {
		for i := range nodes {
			m := i
			nodes[m].OnDone(func(c workload.Class, s sim.Time) {
				if observing {
					ob.done(m, c, s)
				}
				if closed {
					pump.Done(eng.Now())
				}
			})
			nodes[m].OnDrop(func(c workload.Class) {
				if observing {
					ob.dropped(m, c)
				}
				if closed {
					pump.Done(eng.Now())
				}
			})
		}
	}

	pump.Start()
	eng.Run()

	per := make([]*cluster.Result, f.N)
	for i, n := range nodes {
		per[i] = n.Collect()
	}
	fleet := mergeResults(f.Name(), cfg, per)
	fleet.Events = eng.Executed()
	return &FleetResult{Fleet: fleet, PerMachine: per, Placed: placed}
}

// routerSeedTag derives the router's RNG stream from the run seed, far
// outside the machine-index range so no node shares its stream.
const routerSeedTag = uint64(1) << 32

// fleetView adapts the node slice to the router's View.
type fleetView struct{ nodes []cluster.Node }

func (v *fleetView) Machines() int     { return len(v.nodes) }
func (v *fleetView) Backlog(m int) int { return v.nodes[m].Backlog() }
func (v *fleetView) Workers(m int) int { return v.nodes[m].Workers() }

// shiftRecorder relabels worker cores into the machine's band before
// forwarding to the shared recorder. Pseudo-cores (dispatcher, loadgen)
// stay shared: they carry no quanta, so the obs grammar's per-core
// open-quantum tracking never crosses machines through them.
type shiftRecorder struct {
	inner obs.Recorder
	base  int32
}

//simvet:hotpath
func (s shiftRecorder) Emit(e obs.Event) {
	if e.Core >= 0 {
		e.Core += s.base
	}
	s.inner.Emit(e)
}

// mergeResults folds per-machine Results into the fleet aggregate:
// counts and rates sum, latency histograms merge by addition, and the
// conservation law survives because it holds machine by machine. The
// per slice is ordered by machine index, so the merge is deterministic.
//
//simvet:accounting
func mergeResults(system string, cfg cluster.RunConfig, per []*cluster.Result) *cluster.Result {
	window := (cfg.Duration - cfg.Warmup).Seconds()
	out := &cluster.Result{System: system, Config: cfg, RTT: per[0].RTT}
	var good uint64
	for ci, c := range cfg.Workload.Classes {
		merged := cluster.ClassMetrics{Name: c.Name, Sojourn: new(stats.Hist), Slowdown: new(stats.Hist)}
		for _, r := range per {
			mc := &r.PerClass[ci]
			merged.Count += mc.Count
			merged.Good += mc.Good
			merged.Sojourn.Merge(mc.Sojourn)
			merged.Slowdown.Merge(mc.Slowdown)
		}
		good += merged.Good
		out.PerClass = append(out.PerClass, merged)
	}
	for ti, t := range cfg.Tenants {
		merged := cluster.TenantMetrics{Name: t.Name, Sojourn: new(stats.Hist)}
		for _, r := range per {
			mt := &r.PerTenant[ti]
			merged.Offered += mt.Offered
			merged.Completed += mt.Completed
			merged.Dropped += mt.Dropped
			merged.Good += mt.Good
			merged.Sojourn.Merge(mt.Sojourn)
		}
		out.PerTenant = append(out.PerTenant, merged)
	}
	for _, r := range per {
		out.Completed += r.Completed
		out.Offered += r.Offered
		out.Dropped += r.Dropped
	}
	out.Throughput = float64(out.Completed) / window
	out.Goodput = float64(good) / window
	if out.Offered > 0 {
		out.DropRate = float64(out.Dropped) / float64(out.Offered)
	}
	return out
}

// Trace runs the fleet once with a fresh recorder per machine and
// returns one obs.Process per machine — ready for obs.WriteChrome,
// which renders them as side-by-side Perfetto process tracks showing
// cross-machine placement. Every timeline is validated before return;
// cap bounds each machine's recording (0 means obs.DefaultCap).
func (f Fleet) Trace(cfg cluster.RunConfig, cap int) ([]obs.Process, error) {
	f.validate()
	recs := make([]*obs.Ring, f.N)
	res := f.run(cfg, func(i int) obs.Recorder {
		recs[i] = obs.NewRing(cap)
		return recs[i]
	})
	procs := make([]obs.Process, f.N)
	for i, rec := range recs {
		if rec.Truncated() {
			return nil, fmt.Errorf("%s machine %d: trace truncated at %d events (%d discarded); raise the cap or shorten the run",
				f.Name(), i, rec.Len(), rec.Discarded())
		}
		if err := obs.Validate(rec.Events()); err != nil {
			return nil, fmt.Errorf("%s machine %d: %w", f.Name(), i, err)
		}
		procs[i] = obs.Process{
			Name:   fmt.Sprintf("m%02d %s", i, res.PerMachine[i].System),
			Events: rec.Events(),
		}
	}
	return procs, nil
}
