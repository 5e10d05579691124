// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns labelled series (or rows)
// that the cmd tools print, the root benchmark suite reports, and
// EXPERIMENTS.md records. Drivers take a Scale so tests can run cheap
// versions of the same code paths the full harness uses.
//
// Every driver that runs machine models has the same three steps:
// declare all of the figure's curves and knee searches against one
// figure (a cluster.Plan at the scale's settings), run the plan once —
// one worker pool for the whole figure, costliest point first — then
// assemble series from the finished handles. No machine model runs
// outside a plan.
package experiments

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sets simulated run length and sweep resolution.
type Scale struct {
	// Duration and Warmup are per-point simulated times.
	Duration sim.Time
	Warmup   sim.Time
	// Points is the number of load points per curve.
	Points int
	// SuiteScale scales the instrumentation benchmark programs.
	SuiteScale float64
	// Seed makes every driver deterministic. Each sweep point derives
	// its own seed from (Seed, pointIndex), so results do not depend on
	// how many workers run the sweep.
	Seed uint64
	// Workers bounds each figure's worker pool: 0 uses GOMAXPROCS, 1 runs
	// the figure's simulations one at a time, higher values size the pool
	// explicitly.
	Workers int
	// Progress, when non-nil, observes every completed simulation
	// (serialized, in completion order) — the cmd tools print these so
	// long Full runs are observable.
	Progress func(cluster.SweepPoint)
	// SLOs, when non-empty, sets per-class sojourn targets (key "*" is
	// the wildcard; "tenant:class" and "tenant:*" scope a target to one
	// tenant) on every machine the drivers sweep, so each Result
	// carries goodput alongside throughput. Empty leaves every figure
	// byte-identical to an SLO-less run: goodput then just equals
	// throughput.
	SLOs map[string]sim.Time
	// Arrivals, when non-empty, swaps the arrival process under every
	// figure (a workload.ParseArrivals spec: "poisson",
	// "mmpp:burst=10,duty=0.1,cycle=1ms", ...). Empty keeps the paper's
	// Poisson default and every figure byte-identical to the
	// pre-arrival-axis harness.
	Arrivals string
	// Tenants, when non-empty, splits every figure's load across tenant
	// classes (ratios, optional admission shares) and adds per-tenant
	// ledgers to each Result.
	Tenants []workload.Tenant
}

// base is the template every simulating driver builds its run
// configurations from: the scale's run length and seed plus its
// workload-plane overrides — SLO targets, arrival process, tenant split —
// on the given workload. A driver sets Rate (sweeps stamp it, and the
// per-point seed, from this template), so no figure can drop an override.
func (sc Scale) base(w *workload.Workload) cluster.RunConfig {
	return cluster.RunConfig{
		Workload: w,
		Arrivals: sc.Arrivals,
		Tenants:  sc.Tenants,
		Duration: sc.Duration,
		Warmup:   sc.Warmup,
		Seed:     sc.Seed,
		SLOs:     sc.SLOs,
	}
}

// figure is one driver's declare-run-assemble scope: every curve and
// knee search declared against it runs on the one pool of its Plan.
type figure struct {
	sc   Scale
	plan *cluster.Plan
}

// figure opens a scope at the scale's parallelism and progress hook.
func (sc Scale) figure() *figure {
	return &figure{sc, cluster.NewPlan(cluster.SweepOptions{Workers: sc.Workers, OnPoint: sc.Progress})}
}

// sweep declares one load sweep, one fresh machine per point.
func (f *figure) sweep(mf cluster.MachineFactory, w *workload.Workload, rates []float64) *cluster.Curve {
	return f.plan.Sweep(mf, f.sc.base(w), rates)
}

// maxRateUnder declares a search for the highest rate satisfying ok: a
// chain that stops at the knee.
func (f *figure) maxRateUnder(mf cluster.MachineFactory, w *workload.Workload, rates []float64, ok func(*cluster.Result) bool) *cluster.Knee {
	return f.plan.MaxRateUnder(mf, f.sc.base(w), rates, ok)
}

// system is one curve of a figure: a display label plus a per-point
// machine factory.
type system struct {
	label string
	mf    cluster.MachineFactory
}

// named labels a factory's curve with its machine's Name.
func named(mf cluster.MachineFactory) system { return system{label: mf().Name(), mf: mf} }

// sweepSystems declares one sweep per system over a shared grid.
func (f *figure) sweepSystems(w *workload.Workload, rates []float64, systems []system) []*cluster.Curve {
	curves := make([]*cluster.Curve, len(systems))
	for i, s := range systems {
		curves[i] = f.sweep(s.mf, w, rates)
	}
	return curves
}

// classSeries is the shape of cluster's per-class curve extractors
// (SlowdownSeries, SojournSeries, LatencySeries, ...).
type classSeries func(label, class string, results []*cluster.Result) stats.Series

// readSeries extracts one series per system from finished curves.
func readSeries(systems []system, curves []*cluster.Curve, extract classSeries, class string) []stats.Series {
	out := make([]stats.Series, len(systems))
	for i, s := range systems {
		out[i] = extract(s.label, class, curves[i].Results)
	}
	return out
}

// sweepSeries is the whole of a one-workload, one-read-out figure: one
// sweep per system on one pool, one series per system.
func (sc Scale) sweepSeries(w *workload.Workload, rates []float64, systems []system, extract classSeries, class string) []stats.Series {
	f := sc.figure()
	curves := f.sweepSystems(w, rates, systems)
	f.plan.Run()
	return readSeries(systems, curves, extract, class)
}

// Quick is the scale used by tests and the root benchmarks: small but
// large enough that every qualitative shape survives.
var Quick = Scale{
	Duration:   60 * sim.Millisecond,
	Warmup:     6 * sim.Millisecond,
	Points:     8,
	SuiteScale: 0.1,
	Seed:       1,
}

// Full approximates the paper's methodology (the paper runs 10s per
// point and discards the first 10%).
var Full = Scale{
	Duration:   400 * sim.Millisecond,
	Warmup:     40 * sim.Millisecond,
	Points:     14,
	SuiteScale: 1,
	Seed:       1,
}

// Fig1 reproduces Figure 1: p99.9 slowdown vs load under idealized
// centralized PS with zero overhead, for quantum sizes 0.5-10µs, on
// the §2 extreme bimodal workload with 16 cores.
func Fig1(sc Scale) []stats.Series {
	w := workload.Section2Bimodal()
	rates := cluster.RatesUpTo(0.92*w.MaxLoad(16), sc.Points)
	var systems []system
	for _, qUs := range []float64{0.5, 1, 2, 5, 10} {
		systems = append(systems, system{fmt.Sprintf("q=%gus", qUs), func() cluster.Machine {
			return cluster.NewCentralizedPS(16, sim.Micros(qUs), 0)
		}})
	}
	return sc.sweepSeries(w, rates, systems, cluster.SlowdownSeries, "")
}

// Fig2 reproduces Figure 2: the maximum rate sustaining p99.9 slowdown
// <= 10, as a function of quantum size, for preemption overheads 0,
// 0.1µs and 1µs.
func Fig2(sc Scale) []stats.Series {
	w := workload.Section2Bimodal()
	rates := cluster.RatesUpTo(w.MaxLoad(16), 2*sc.Points)
	quanta := []float64{0.5, 1, 2, 3, 5, 10}
	overheads := []float64{0, 0.1, 1}
	f := sc.figure()
	knees := make([][]*cluster.Knee, len(overheads))
	for i, ovUs := range overheads {
		for _, qUs := range quanta {
			knees[i] = append(knees[i], f.maxRateUnder(func() cluster.Machine {
				return cluster.NewCentralizedPS(16, sim.Micros(qUs), sim.Micros(ovUs))
			}, w, rates, func(r *cluster.Result) bool { return r.P999Slowdown("") <= 10 }))
		}
	}
	f.plan.Run()
	var out []stats.Series
	for i, ovUs := range overheads {
		s := stats.Series{Label: fmt.Sprintf("overhead=%gus", ovUs)}
		for j, qUs := range quanta {
			s.Append(qUs, knees[i][j].Rate())
		}
		out = append(out, s)
	}
	return out
}

// Fig4 reproduces Figure 4: long-job p99.9 slowdown for centralized PS
// vs two-level scheduling with MSQ or random tie-breaking, all with
// zero mechanism overheads.
func Fig4(sc Scale) []stats.Series {
	w := workload.Section2Bimodal()
	q := sim.Micros(1)
	rates := cluster.RatesUpTo(0.9*w.MaxLoad(16), sc.Points)
	var systems []system
	for _, name := range []string{"ct-ps", "tls-jsq-msq", "tls-jsq-rand"} {
		systems = append(systems, registrySystem("", name, cluster.Options{Quantum: q}))
	}
	return sc.sweepSeries(w, rates, systems, cluster.SlowdownSeries, "Long")
}

// Fig5 reproduces Figure 5: TQ's short-job p99.9 sojourn time vs rate
// on Extreme Bimodal, for quanta 0.5-10µs. Fig6 is the long-job view.
func Fig5(sc Scale) []stats.Series {
	short, _ := Fig5And6(sc)
	return short
}

// Fig6 reproduces Figure 6 (see Fig5).
func Fig6(sc Scale) []stats.Series {
	_, long := Fig5And6(sc)
	return long
}

// Fig5And6 returns both figures from the one sweep they share: they
// differ only in the class read out, so a caller wanting both (tqsim
// -fig all) simulates it once.
func Fig5And6(sc Scale) (short, long []stats.Series) {
	w := workload.ExtremeBimodal()
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), sc.Points)
	var systems []system
	for _, qUs := range []float64{0.5, 1, 2, 5, 10} {
		systems = append(systems, system{fmt.Sprintf("q=%gus", qUs), func() cluster.Machine {
			p := cluster.NewTQParams()
			p.Quantum = sim.Micros(qUs)
			return cluster.NewTQ(p)
		}})
	}
	f := sc.figure()
	curves := f.sweepSystems(w, rates, systems)
	f.plan.Run()
	return readSeries(systems, curves, cluster.SojournSeries, "Short"),
		readSeries(systems, curves, cluster.SojournSeries, "Long")
}

// SystemComparison holds one cross-system figure: per class, one
// latency curve per system.
type SystemComparison struct {
	Workload string
	// PerClass maps class name to the systems' curves.
	PerClass map[string][]stats.Series
	// OverallSlowdown, when set, is the pooled p99.9 slowdown curve
	// per system (reported for TPC-C, Figure 8).
	OverallSlowdown []stats.Series
	// Goodput and DropRate are the overload companions to the latency
	// curves, one series per system: survivor-only percentiles flatten
	// exactly where the RX rings start shedding load, and these curves
	// show it. Without Scale.SLOs, goodput equals throughput.
	Goodput  []stats.Series
	DropRate []stats.Series
	// OptimalityGap, when set (CompareMachines fills it; the figure
	// drivers leave it nil), maps class name to one curve per system of
	// (rate, p99 sojourn ÷ oracle-srpt's p99 sojourn at the same rate) —
	// the UPS-style distance from the clairvoyant baseline. 1.0 means
	// the blind scheduler matched the oracle; a point is 0 when the
	// oracle recorded no completions for the class at that rate.
	OptimalityGap map[string][]stats.Series
	// PerTenant, when Scale.Tenants splits the load, maps tenant name to
	// one p99.9-sojourn curve per system, pooled over classes — the
	// per-tenant view of the same sweeps.
	PerTenant map[string][]stats.Series
}

// registrySystem resolves a registry name under the given options into
// one curve, labelled label or, when that is empty, with the machine's
// display name. The options must pass the entry's Check.
func registrySystem(label, name string, o cluster.Options) system {
	e := cluster.MustLookup(name)
	s := named(func() cluster.Machine { return e.Build(o) })
	if label != "" {
		s.label = label
	}
	return s
}

// oracleSystem is the clairvoyant baseline the optimality-gap curves
// divide by.
var oracleSystem = registrySystem("", "oracle-srpt", cluster.Options{})

// compareSystems declares sweeps of TQ, Shinjuku (at its per-workload
// quantum) and Caladan (better of its two modes per §5.1, judged on the
// figure's first class) over the workload. TQ and Shinjuku come from
// the registry; Caladan keeps its class-judged factory because the
// registry default judges by throughput.
func (f *figure) compareSystems(w *workload.Workload, shinjukuQ sim.Time, classes []string, slowdown bool) func() SystemComparison {
	systems := []system{
		registrySystem("TQ", "tq", cluster.Options{}),
		registrySystem("Shinjuku", "shinjuku", cluster.Options{Quantum: shinjukuQ}),
		{label: "Caladan", mf: func() cluster.Machine { return cluster.NewBestCaladan(classes[0]) }},
	}
	return f.compareMachines(w, classes, slowdown, false, systems)
}

// comparisons runs several declared comparisons on the figure's one
// pool and assembles them in order.
func (f *figure) comparisons(pending ...func() SystemComparison) []SystemComparison {
	f.plan.Run()
	out := make([]SystemComparison, len(pending))
	for i, assemble := range pending {
		out[i] = assemble()
	}
	return out
}

// CompareMachines sweeps registry machines (display names as labels)
// side by side over the workload — the registry-driven generalization
// behind tqsim -machines. Every named machine is built under the same
// options (the zero Options is each machine's default; a non-empty
// Discipline is a pifo name: rr, fcfs, srpt, edf, las, prio-age), and a
// machine that lacks a requested knob is an error naming it. Classes
// default to all of the workload's. The comparison carries OptimalityGap
// curves against the clairvoyant oracle-srpt baseline.
func CompareMachines(sc Scale, w *workload.Workload, classes []string, o cluster.Options, names ...string) (SystemComparison, error) {
	if len(classes) == 0 {
		for _, c := range w.Classes {
			classes = append(classes, c.Name)
		}
	}
	var systems []system
	for _, n := range names {
		if err := cluster.MustLookup(n).Check(o); err != nil {
			return SystemComparison{}, err
		}
		systems = append(systems, registrySystem("", n, o))
	}
	f := sc.figure()
	return f.comparisons(f.compareMachines(w, classes, false, true, systems))[0], nil
}

// compareMachines declares one sweep per system and returns the step
// that, once the figure has run, assembles the latency, slowdown,
// goodput, and drop-rate curves. With withGap it additionally sweeps
// the clairvoyant oracle-srpt baseline over the same rates and fills
// OptimalityGap; the paper-figure drivers pass false so Figures 7-10
// stay byte-identical to the pre-oracle harness.
func (f *figure) compareMachines(w *workload.Workload, classes []string, slowdown, withGap bool, systems []system) func() SystemComparison {
	rates := cluster.RatesUpTo(0.98*w.MaxLoad(16), f.sc.Points)
	curves := f.sweepSystems(w, rates, systems)
	var oracle *cluster.Curve
	if withGap {
		oracle = f.sweep(oracleSystem.mf, w, rates)
	}
	return func() SystemComparison {
		cmp := SystemComparison{Workload: w.Name, PerClass: map[string][]stats.Series{}}
		for _, class := range classes {
			cmp.PerClass[class] = readSeries(systems, curves, cluster.LatencySeries, class)
		}
		if slowdown {
			cmp.OverallSlowdown = readSeries(systems, curves, cluster.SlowdownSeries, "")
		}
		for i, s := range systems {
			cmp.Goodput = append(cmp.Goodput, cluster.GoodputSeries(s.label, curves[i].Results))
			cmp.DropRate = append(cmp.DropRate, cluster.DropRateSeries(s.label, curves[i].Results))
		}
		if withGap {
			cmp.OptimalityGap = map[string][]stats.Series{}
			for _, class := range classes {
				for i, s := range systems {
					cmp.OptimalityGap[class] = append(cmp.OptimalityGap[class],
						gapSeries(s.label, class, curves[i].Results, oracle.Results))
				}
			}
		}
		if len(f.sc.Tenants) > 0 {
			cmp.PerTenant = map[string][]stats.Series{}
			for ti, tn := range f.sc.Tenants {
				for i, s := range systems {
					ser := stats.Series{Label: s.label}
					for _, r := range curves[i].Results {
						y := 0.0
						if ti < len(r.PerTenant) {
							y = r.PerTenant[ti].Sojourn.P999() / 1e3 // ns → µs
						}
						ser.Append(r.Config.Rate, y)
					}
					cmp.PerTenant[tn.Name] = append(cmp.PerTenant[tn.Name], ser)
				}
			}
		}
		return cmp
	}
}

// gapSeries divides a system's p99 sojourn curve by the oracle's,
// point by point. p99 rather than p99.9: the gap table reads at two
// rates, and the coarser tail is stable at test scales too.
func gapSeries(label, class string, sys, oracle []*cluster.Result) stats.Series {
	s := stats.Series{Label: label}
	for i, r := range sys {
		base := oracle[i].P99SojournUs(class)
		g := 0.0
		if base > 0 {
			g = r.P99SojournUs(class) / base
		}
		s.Append(r.Config.Rate, g)
	}
	return s
}

// GapRow is one machine's optimality gap at the two headline operating
// points: mid-load (55% of the 16-core saturation rate) and the
// overload knee (90% — where the baselines' tails have blown up but no
// RX ring drops yet, so survivor-only percentiles are still honest;
// past saturation a machine that sheds load reports flattened tails
// over its survivors and the ratio stops meaning anything).
type GapRow struct {
	// Name is the registry key; Display the machine's Name().
	Name, Display string
	// Mid and Over are p99-sojourn ratios vs oracle-srpt for the table's
	// class (0 when the oracle saw no completions for the class).
	Mid, Over float64
}

// OptimalityGapTable runs every named registry machine and the
// clairvoyant oracle at mid-load and the overload knee on the workload
// and returns one gap row per machine for the given class — the
// UPS-style "price of blindness" table EXPERIMENTS.md records. The
// oracle's own row is the sanity check: identical sweeps divide to
// exactly 1.
func OptimalityGapTable(sc Scale, w *workload.Workload, class string, names ...string) []GapRow {
	rates := []float64{0.55 * w.MaxLoad(16), 0.9 * w.MaxLoad(16)}
	f := sc.figure()
	oracle := f.sweep(oracleSystem.mf, w, rates)
	systems := make([]system, len(names))
	for i, n := range names {
		systems[i] = registrySystem("", n, cluster.Options{})
	}
	curves := f.sweepSystems(w, rates, systems)
	f.plan.Run()
	rows := make([]GapRow, len(names))
	for i, n := range names {
		g := gapSeries(n, class, curves[i].Results, oracle.Results)
		rows[i] = GapRow{Name: n, Display: systems[i].label, Mid: g.Y[0], Over: g.Y[1]}
	}
	return rows
}

// Fig7 reproduces Figure 7: TQ vs Shinjuku vs Caladan on Extreme and
// High Bimodal (Shinjuku at its 5µs sweet spot), short and long
// classes.
func Fig7(sc Scale) []SystemComparison {
	f := sc.figure()
	return f.comparisons(
		f.compareSystems(workload.ExtremeBimodal(), sim.Micros(5), []string{"Short", "Long"}, false),
		f.compareSystems(workload.HighBimodal(), sim.Micros(5), []string{"Short", "Long"}, false),
	)
}

// Fig8 reproduces Figure 8: TPC-C with Shinjuku at 10µs, per-class
// tails for the shortest and longest transactions plus the overall
// slowdown.
func Fig8(sc Scale) SystemComparison {
	f := sc.figure()
	return f.comparisons(f.compareSystems(workload.TPCC(), sim.Micros(10), []string{"Payment", "StockLevel"}, true))[0]
}

// Fig9 reproduces Figure 9: Exp(1) with Shinjuku at 10µs.
func Fig9(sc Scale) SystemComparison {
	f := sc.figure()
	return f.comparisons(f.compareSystems(workload.Exp1(), sim.Micros(10), []string{"Exp"}, false))[0]
}

// Fig10 reproduces Figure 10: RocksDB at 0.5% and 50% SCAN with
// Shinjuku at 15µs.
func Fig10(sc Scale) []SystemComparison {
	f := sc.figure()
	return f.comparisons(
		f.compareSystems(workload.RocksDB(0.005), sim.Micros(15), []string{"GET", "SCAN"}, false),
		f.compareSystems(workload.RocksDB(0.5), sim.Micros(15), []string{"GET", "SCAN"}, false),
	)
}

// Fig11 reproduces Figure 11: TQ vs its forced-multitasking ablations
// (TQ-IC, TQ-SLOW-YIELD, TQ-TIMING) on RocksDB 0.5% SCAN; GET curves.
func Fig11(sc Scale) []stats.Series {
	return tqVariantSweep(sc, []func() *cluster.TQ{
		func() *cluster.TQ { return cluster.NewTQ(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQIC(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQSlowYield(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQTiming(cluster.NewTQParams()) },
	})
}

// Fig12 reproduces Figure 12: TQ vs its two-level-scheduling ablations
// (TQ-RAND, TQ-POWER-TWO, TQ-FCFS) on RocksDB 0.5% SCAN; GET curves.
func Fig12(sc Scale) []stats.Series {
	return tqVariantSweep(sc, []func() *cluster.TQ{
		func() *cluster.TQ { return cluster.NewTQ(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQRand(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQPowerTwo(cluster.NewTQParams()) },
		func() *cluster.TQ { return cluster.NewTQFCFS(cluster.NewTQParams()) },
	})
}

func tqVariantSweep(sc Scale, variants []func() *cluster.TQ) []stats.Series {
	w := workload.RocksDB(0.005)
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), sc.Points)
	var systems []system
	for _, mk := range variants {
		systems = append(systems, named(func() cluster.Machine { return mk() }))
	}
	return sc.sweepSeries(w, rates, systems, cluster.SojournSeries, "GET")
}

// Fig13 reproduces Figure 13: TLS pointer-chase access latency vs
// array size for quanta 0.5, 2 and 16µs.
func Fig13(accesses int) []stats.Series {
	var out []stats.Series
	for _, qNs := range []float64{500, 2000, 16000} {
		s := stats.Series{Label: fmt.Sprintf("TLS-%gus", qNs/1000)}
		for _, size := range cachesim.ArraySizes() {
			cfg := cachesim.DefaultChaseConfig(cachesim.TLS, qNs, size)
			if accesses > 0 {
				cfg.WarmupAccesses = accesses / 3
				cfg.MeasuredAccesses = accesses
			}
			res := cachesim.RunChase(cfg)
			s.Append(float64(size), res.AvgLatencyNs)
		}
		out = append(out, s)
	}
	return out
}

// Fig14 reproduces Figure 14: TLS vs CT access latency at 2µs quanta.
func Fig14(accesses int) []stats.Series {
	var out []stats.Series
	for _, fw := range []cachesim.Framework{cachesim.TLS, cachesim.CT} {
		s := stats.Series{Label: fw.String() + "-2us"}
		for _, size := range cachesim.ArraySizes() {
			cfg := cachesim.DefaultChaseConfig(fw, 2000, size)
			if accesses > 0 {
				cfg.WarmupAccesses = accesses / 3
				cfg.MeasuredAccesses = accesses
			}
			res := cachesim.RunChase(cfg)
			s.Append(float64(size), res.AvgLatencyNs)
		}
		out = append(out, s)
	}
	return out
}

// Fig15Result holds the reuse-distance histograms of the KV store's
// GET and SCAN operations (distances in bytes: distinct lines × 64).
type Fig15Result struct {
	GET, SCAN *stats.Histogram
	// FracAbove8KB per operation — the statistic §5.5.2 quotes (3.7%
	// and 4.5% in the paper).
	GETAbove8KB, SCANAbove8KB float64
}

// Fig15 reproduces Figure 15 by tracing the in-memory KV store
// substitute for RocksDB: load keys, then measure reuse distances of
// GET and SCAN address streams.
func Fig15(keys, gets, scans int, seed uint64) Fig15Result {
	makeHist := func() *stats.Histogram { return stats.NewHistogram(64, 2, 22) }
	res := Fig15Result{GET: makeHist(), SCAN: makeHist()}

	var tracker *cachesim.ReuseTracker
	var hist *stats.Histogram
	store := kvstore.New(kvstore.Config{
		Seed: seed,
		Trace: func(addr uint64, size int) {
			if tracker == nil {
				return
			}
			for off := 0; off < size; off += 64 {
				d := tracker.Access(addr + uint64(off))
				if d >= 0 {
					hist.Add(float64(d) * 64)
				}
			}
		},
	})
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%09d", i)) }
	for i := 0; i < keys; i++ {
		store.Put(key(i), []byte(fmt.Sprintf("value-%09d-xxxxxxxxxxxxxxxx", i)))
	}
	store.Flush()

	r := rng.New(seed)
	// Each operation also touches its job-local working set — request
	// parse, stack frames, response formatting — which the paper's Pin
	// tool traces but the store's structural trace hook cannot see.
	// These accesses hit the same few KB every operation (tiny reuse
	// distances), exactly the hot fraction that makes real GET/SCAN
	// jobs insensitive to quantum changes.
	const scratchBase = uint64(1) << 40
	const scratchLines = 48 // ≈3KB of per-job hot data
	touchScratch := func() {
		if tracker == nil {
			return
		}
		for l := 0; l < scratchLines; l++ {
			d := tracker.Access(scratchBase + uint64(l)*64)
			if d >= 0 {
				hist.Add(float64(d) * 64)
			}
		}
	}
	// GET phase: each operation is one job; intra-job locality is what
	// the figure studies, so the tracker persists across the phase
	// (inter-job reuse is part of the address stream, as with MICA).
	// Scratch is touched twice per operation — request parsing before
	// the lookup, response formatting after — as the real handler
	// does.
	tracker, hist = cachesim.NewReuseTracker(), res.GET
	for i := 0; i < gets; i++ {
		touchScratch()
		store.Get(key(r.Intn(keys)))
		touchScratch()
	}
	tracker, hist = cachesim.NewReuseTracker(), res.SCAN
	for i := 0; i < scans; i++ {
		touchScratch()
		store.Scan(key(r.Intn(keys)), 400, func(_, _ []byte) bool {
			touchScratch()
			return true
		})
		touchScratch()
	}
	tracker = nil

	res.GETAbove8KB = res.GET.FractionAbove(8192)
	res.SCANAbove8KB = res.SCAN.FractionAbove(8192)
	return res
}

// Fig16 reproduces Figure 16: the maximum number of worker cores whose
// quanta the system can schedule within 10% of the target, for target
// quanta 0.5-5µs, comparing Shinjuku's centralized preemption against
// TQ's self-scheduling workers.
func Fig16(sc Scale) []stats.Series {
	w := workload.Fixed("long", sim.Millisecond)
	quanta := []float64{0.5, 1, 2, 3, 5}
	const maxCores = 16

	// Point i of every scan runs i+1 cores at 60% load.
	cfgs := make([]cluster.RunConfig, maxCores)
	for i := range cfgs {
		cfgs[i] = sc.base(w)
		cfgs[i].Rate = 0.6 * w.MaxLoad(i+1)
	}
	// measured runs cores workers at quantum q and reports the quantum
	// actually achieved.
	type measured func(q sim.Time, cores int, cfg cluster.RunConfig) (*cluster.Result, stats.RunningMean)
	systems := []struct {
		label string
		run   measured
	}{
		{"Shinjuku", func(q sim.Time, cores int, cfg cluster.RunConfig) (*cluster.Result, stats.RunningMean) {
			p := cluster.NewShinjukuParams(q)
			p.Workers = cores
			return cluster.NewShinjuku(p).RunMeasured(cfg)
		}},
		{"TQ", func(q sim.Time, cores int, cfg cluster.RunConfig) (*cluster.Result, stats.RunningMean) {
			p := cluster.NewTQParams()
			p.Quantum = q
			p.Workers = cores
			return cluster.NewTQ(p).RunMeasured(cfg)
		}},
	}

	// One chain per (system, quantum): core counts ascend until the
	// achieved quantum first leaves the 10% band.
	f := sc.figure()
	scans := make([][]*cluster.Chain, len(systems))
	for si, sys := range systems {
		for _, qUs := range quanta {
			q := sim.Micros(qUs)
			scans[si] = append(scans[si], f.plan.Chain(cfgs, func(i int, cfg cluster.RunConfig) (*cluster.Result, bool) {
				res, achieved := sys.run(q, i+1, cfg)
				return res, !(achieved.Len() == 0 || achieved.Mean() > 1.1*float64(q))
			}))
		}
	}
	f.plan.Run()
	out := make([]stats.Series, len(systems))
	for si, sys := range systems {
		out[si].Label = sys.label
		for qi, qUs := range quanta {
			out[si].Append(qUs, float64(scans[si][qi].Passed))
		}
	}
	return out
}

// DispatcherThroughput reproduces the §6 observation: the TQ
// dispatcher, doing only load balancing, sustains far more requests
// per second than a centralized scheduling core. It offers tiny jobs
// at the given rate to many workers and reports completions/second.
func DispatcherThroughput(sc Scale, rate float64) map[string]float64 {
	w := workload.Fixed("tiny", 100*sim.Nanosecond)
	cfg := sc.base(w)
	cfg.Rate = rate
	tp := cluster.NewTQParams()
	tp.Workers = 64 // ample workers: isolate the dispatcher
	tp.Coroutines = 16
	sp := cluster.NewShinjukuParams(sim.Micros(5))
	sp.Workers = 64
	machines := []cluster.Machine{cluster.NewTQ(tp), cluster.NewShinjuku(sp)}
	f := sc.figure()
	runs := f.plan.Points([]cluster.RunConfig{cfg, cfg}, func(i int, cfg cluster.RunConfig) *cluster.Result {
		return machines[i].Run(cfg)
	})
	f.plan.Run()
	return map[string]float64{
		"TQ":       runs.Results[0].Throughput,
		"Shinjuku": runs.Results[1].Throughput,
	}
}

// Table3 runs the instrumentation comparison (see internal/instrument).
func Table3(sc Scale) []instrument.Table3Row {
	return instrument.Table3(sc.SuiteScale, sc.Seed)
}

// ExtensionComparison evaluates the discussion-section extensions and
// related-work baselines on Extreme Bimodal: TQ's default PS workers,
// LAS workers (§3.1's dynamic-quantum use case), Concord-style
// cache-line preemption, and LibPreemptible-style user interrupts
// (§7). It returns one short-job p99.9 sojourn curve per system.
func ExtensionComparison(sc Scale) []stats.Series {
	w := workload.ExtremeBimodal()
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), sc.Points)
	var systems []system
	for _, name := range []string{"tq", "tq-las", "concord", "libpreemptible"} {
		systems = append(systems, registrySystem("", name, cluster.Options{}))
	}
	return sc.sweepSeries(w, rates, systems, cluster.SojournSeries, "Short")
}

// MultiDispatcherScaling measures sustained throughput on tiny jobs
// with 1, 2 and 4 dispatcher cores at the given offered load — the §6
// scale-out discussion made concrete.
func MultiDispatcherScaling(sc Scale, offered float64) []float64 {
	w := workload.Fixed("tiny", 100*sim.Nanosecond)
	dispatchers := []int{1, 2, 4}
	cfgs := make([]cluster.RunConfig, len(dispatchers))
	for i := range cfgs {
		cfgs[i] = sc.base(w)
		cfgs[i].Rate = offered
	}
	f := sc.figure()
	runs := f.plan.Points(cfgs, func(i int, cfg cluster.RunConfig) *cluster.Result {
		p := cluster.NewTQParams()
		p.Workers = 64
		p.Coroutines = 16
		p.Dispatchers = dispatchers[i]
		return cluster.NewTQ(p).Run(cfg)
	})
	f.plan.Run()
	out := make([]float64, len(dispatchers))
	for i, r := range runs.Results {
		out[i] = r.Throughput
	}
	return out
}

// CoroutineCountAblation sweeps the number of task coroutines per
// worker (§5.1: "similar performance with more than four task
// coroutines; we use eight") and returns, per count, the maximum rate
// at which RocksDB-mix GETs stay under a 50µs p99.9 sojourn.
func CoroutineCountAblation(sc Scale, counts []int) []float64 {
	w := workload.RocksDB(0.005)
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), sc.Points)
	f := sc.figure()
	knees := make([]*cluster.Knee, len(counts))
	for i, coros := range counts {
		knees[i] = f.maxRateUnder(func() cluster.Machine {
			p := cluster.NewTQParams()
			p.Coroutines = coros
			return cluster.NewTQ(p)
		}, w, rates, func(r *cluster.Result) bool { return r.P999SojournUs("GET") <= 50 })
	}
	f.plan.Run()
	out := make([]float64, len(counts))
	for i, k := range knees {
		out[i] = k.Rate()
	}
	return out
}
