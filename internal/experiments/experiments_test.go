package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/instrument"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tiny is an even cheaper scale than Quick for per-driver smoke tests;
// shape assertions use Quick where they need resolution.
var tiny = Scale{
	Duration:   25 * sim.Millisecond,
	Warmup:     3 * sim.Millisecond,
	Points:     5,
	SuiteScale: 0.05,
	Seed:       1,
}

func TestFig1SmallerQuantaLowerSlowdown(t *testing.T) {
	series := Fig1(Quick)
	if len(series) != 5 {
		t.Fatalf("Fig1 returned %d curves, want 5", len(series))
	}
	// At the highest common load point, 0.5µs quanta must beat 10µs.
	small := series[0] // q=0.5
	large := series[4] // q=10
	last := len(small.Y) - 1
	if small.Y[last] >= large.Y[last] {
		t.Fatalf("at max load, q=0.5µs slowdown %v not below q=10µs %v",
			small.Y[last], large.Y[last])
	}
}

func TestFig2OverheadShapesCapacity(t *testing.T) {
	series := Fig2(Quick)
	if len(series) != 3 {
		t.Fatalf("Fig2 returned %d curves, want 3", len(series))
	}
	free, heavy := series[0], series[2] // 0 and 1µs overhead
	// With zero overhead, the smallest quantum must sustain at least
	// as much load as the largest.
	if free.Y[0] < free.Y[len(free.Y)-1]*0.95 {
		t.Errorf("zero overhead: 0.5µs quanta capacity %v below 10µs %v",
			free.Y[0], free.Y[len(free.Y)-1])
	}
	// With 1µs overhead, sub-µs quanta must collapse relative to the
	// zero-overhead case.
	if heavy.Y[0] >= free.Y[0]*0.7 {
		t.Errorf("1µs overhead did not collapse 0.5µs-quanta capacity: %v vs %v",
			heavy.Y[0], free.Y[0])
	}
}

func TestFig4MSQNotWorseThanRandomTieBreak(t *testing.T) {
	// The long-job p99.9 gap between MSQ and random tie-breaking is
	// smaller than single-realization noise at Quick scale: across root
	// seeds the sign of the per-seed difference flips. (The old
	// single-seed form of this test passed only because the shared-seed
	// sweep happened to favor MSQ at seed 1.) Average the top-half-of-
	// sweep sums over three root seeds and require MSQ to stay within
	// 10% of random — a broken MSQ policy blows well past that, while
	// the true (small) MSQ advantage keeps the ratio near or below 1.
	var msqSum, rndSum float64
	for _, seed := range []uint64{1, 2, 3} {
		sc := Quick
		sc.Seed = seed
		series := Fig4(sc)
		if len(series) != 3 {
			t.Fatalf("Fig4 returned %d curves, want 3", len(series))
		}
		msq, rnd := series[1], series[2]
		for i := len(msq.Y) / 2; i < len(msq.Y); i++ {
			msqSum += msq.Y[i]
			rndSum += rnd.Y[i]
		}
	}
	if msqSum >= rndSum*1.1 {
		t.Fatalf("MSQ tie-breaking (%v) materially worse than random (%v) for long jobs",
			msqSum, rndSum)
	}
}

func TestFig5SmallQuantaHelpShortJobs(t *testing.T) {
	series := Fig5(Quick)
	if len(series) != 5 {
		t.Fatalf("Fig5 returned %d curves", len(series))
	}
	// At a high-load point, 1µs quanta give shorter short-job tails
	// than 10µs quanta.
	q1, q10 := series[1], series[4]
	i := len(q1.Y) - 2
	if q1.Y[i] >= q10.Y[i] {
		t.Fatalf("short jobs: q=1µs p999 %v not below q=10µs %v at high load", q1.Y[i], q10.Y[i])
	}
}

func TestFig7TQSustainsHighestLoadUnderSLO(t *testing.T) {
	cmps := Fig7(Quick)
	if len(cmps) != 2 {
		t.Fatalf("Fig7 returned %d workloads", len(cmps))
	}
	for _, cmp := range cmps {
		curves := cmp.PerClass["Short"]
		tq := maxUnderSLOXY(curves[0].X, curves[0].Y, 50)
		sj := maxUnderSLOXY(curves[1].X, curves[1].Y, 50)
		cal := maxUnderSLOXY(curves[2].X, curves[2].Y, 50)
		if tq <= sj || tq <= cal {
			t.Errorf("%s: TQ max rate %v under 50µs SLO not above Shinjuku %v / Caladan %v",
				cmp.Workload, tq, sj, cal)
		}
	}
}

func TestFig11ICVariantLosesThroughput(t *testing.T) {
	series := Fig11(Quick)
	if len(series) != 4 {
		t.Fatalf("Fig11 returned %d curves", len(series))
	}
	tq, ic := series[0], series[1]
	tqMax := maxUnderSLOXY(tq.X, tq.Y, 50)
	icMax := maxUnderSLOXY(ic.X, ic.Y, 50)
	if icMax >= tqMax {
		t.Fatalf("TQ-IC sustained %v under 50µs GET SLO, TQ only %v", icMax, tqMax)
	}
}

func TestFig12FCFSVariantLosesThroughput(t *testing.T) {
	series := Fig12(Quick)
	tq, fcfs := series[0], series[3]
	tqMax := maxUnderSLOXY(tq.X, tq.Y, 50)
	fcfsMax := maxUnderSLOXY(fcfs.X, fcfs.Y, 50)
	if fcfsMax >= tqMax {
		t.Fatalf("TQ-FCFS sustained %v under 50µs GET SLO, TQ only %v", fcfsMax, tqMax)
	}
}

func TestSeedSensitivityPreservesWinnerOrdering(t *testing.T) {
	// The paper's qualitative claims must not hinge on one lucky seed:
	// with per-point seed derivation, changing the root seed perturbs
	// every point's noise independently, but at high load TQ must still
	// sustain more load under the short-job SLO than both baselines.
	sc := Quick
	sc.Points = 6
	for _, seed := range []uint64{1, 99} {
		sc.Seed = seed
		cmp := compareOne(sc, workload.ExtremeBimodal(), sim.Micros(5), []string{"Short"})
		curves := cmp.PerClass["Short"]
		tq := maxUnderSLOXY(curves[0].X, curves[0].Y, 50)
		sj := maxUnderSLOXY(curves[1].X, curves[1].Y, 50)
		cal := maxUnderSLOXY(curves[2].X, curves[2].Y, 50)
		if tq <= sj || tq <= cal {
			t.Errorf("seed %d: TQ max rate %v under 50µs SLO not above Shinjuku %v / Caladan %v",
				seed, tq, sj, cal)
		}
	}
}

func TestScaleWorkersSequentialAndParallelAgree(t *testing.T) {
	// A figure must come out identical — every series value, and so every
	// printed line — whether its pool has one worker or several: curve
	// figures (Fig 1; Fig 7's two workloads sharing a pool), knee chains
	// (Fig 2, the coroutine ablation), core-count chains (Fig 16) and the
	// one-off runs (§6 dispatchers) alike.
	sc := tiny
	sc.Duration, sc.Warmup, sc.Points = 8*sim.Millisecond, sim.Millisecond, 4
	figures := []struct {
		name string
		run  func(Scale) any
	}{
		{"Fig1", func(sc Scale) any { return Fig1(sc) }},
		{"Fig2", func(sc Scale) any { return Fig2(sc) }},
		{"Fig5And6", func(sc Scale) any { short, long := Fig5And6(sc); return [][]stats.Series{short, long} }},
		{"Fig7", func(sc Scale) any { return Fig7(sc) }},
		{"Fig16", func(sc Scale) any { return Fig16(sc) }},
		{"DispatcherThroughput", func(sc Scale) any { return DispatcherThroughput(sc, 8e6) }},
		{"MultiDispatcherScaling", func(sc Scale) any { return MultiDispatcherScaling(sc, 40e6) }},
		{"CoroutineCountAblation", func(sc Scale) any { return CoroutineCountAblation(sc, []int{2, 8}) }},
	}
	for _, fig := range figures {
		sc.Workers = 1
		want := fig.run(sc)
		for _, workers := range []int{2, 3, 8} {
			sc.Workers = workers
			got := fig.run(sc)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s differs between workers=1 and workers=%d:\n%v\n%v", fig.name, workers, want, got)
			}
		}
	}
}

// TestFig5And6ShareOneSweep: the pair read from one sweep must be the
// two figures as each computes alone.
func TestFig5And6ShareOneSweep(t *testing.T) {
	sc := tiny
	sc.Duration, sc.Warmup, sc.Points = 8*sim.Millisecond, sim.Millisecond, 3
	short, long := Fig5And6(sc)
	if !reflect.DeepEqual(short, Fig5(sc)) || !reflect.DeepEqual(long, Fig6(sc)) {
		t.Fatal("Fig5And6 does not return Fig5 and Fig6")
	}
	if reflect.DeepEqual(short, long) {
		t.Fatal("short- and long-job read-outs are the same series")
	}
}

func TestCompareSystemsOverloadSeries(t *testing.T) {
	// Every cross-system comparison now carries goodput and drop-rate
	// curves alongside the latency curves, one per system, with sane
	// ranges. Setting Scale.SLOs must lower goodput (Long jobs take
	// ~100µs of service, so a 20µs target is unmeetable for them) while
	// leaving every latency curve byte-identical: the SLO wrapper only
	// classifies completions, it never changes the simulation.
	sc := tiny
	w := workload.ExtremeBimodal()
	plain := compareOne(sc, w, sim.Micros(5), []string{"Short", "Long"})
	if len(plain.Goodput) != 3 || len(plain.DropRate) != 3 {
		t.Fatalf("got %d goodput / %d drop-rate curves, want 3 each",
			len(plain.Goodput), len(plain.DropRate))
	}
	for i := range plain.Goodput {
		if len(plain.Goodput[i].Y) != sc.Points {
			t.Fatalf("%s goodput curve has %d points, want %d",
				plain.Goodput[i].Label, len(plain.Goodput[i].Y), sc.Points)
		}
		for _, v := range plain.DropRate[i].Y {
			if v < 0 || v > 1 {
				t.Fatalf("%s drop rate %v outside [0,1]", plain.DropRate[i].Label, v)
			}
		}
	}

	strict := sc
	strict.SLOs = map[string]sim.Time{"*": sim.Micros(20)}
	slod := compareOne(strict, w, sim.Micros(5), []string{"Short", "Long"})
	last := sc.Points - 1
	if slod.Goodput[0].Y[last] >= plain.Goodput[0].Y[last] {
		t.Fatalf("20µs SLO did not lower TQ goodput: %v vs %v",
			slod.Goodput[0].Y[last], plain.Goodput[0].Y[last])
	}
	if !reflect.DeepEqual(slod.PerClass, plain.PerClass) {
		t.Fatal("setting SLOs changed the latency curves")
	}
}

// compareOne is a one-workload cross-system figure, as Figure 9 builds
// it.
func compareOne(sc Scale, w *workload.Workload, shinjukuQ sim.Time, classes []string) SystemComparison {
	f := sc.figure()
	return f.comparisons(f.compareSystems(w, shinjukuQ, classes, false))[0]
}

func maxUnderSLOXY(x, y []float64, slo float64) float64 {
	best := 0.0
	for i := range x {
		if y[i] > slo || y[i] == 0 {
			break
		}
		best = x[i]
	}
	return best
}

func TestFig13Shapes(t *testing.T) {
	series := Fig13(120_000)
	if len(series) != 3 {
		t.Fatalf("Fig13 returned %d curves", len(series))
	}
	// Latency grows with array size for every quantum.
	for _, s := range series {
		if s.Y[0] >= s.Y[len(s.Y)-1] {
			t.Errorf("%s: latency did not grow with array size (%v .. %v)",
				s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestFig14CTAboveTLS(t *testing.T) {
	series := Fig14(120_000)
	tls, ct := series[0], series[1]
	// Across mid-size arrays, CT must be at or above TLS.
	var tlsSum, ctSum float64
	for i := 3; i <= 8; i++ { // 8KB..256KB
		tlsSum += tls.Y[i]
		ctSum += ct.Y[i]
	}
	if ctSum <= tlsSum {
		t.Fatalf("CT mid-size latency (%v) not above TLS (%v)", ctSum, tlsSum)
	}
}

func TestFig15MostReuseDistancesSmall(t *testing.T) {
	res := Fig15(3000, 1500, 40, 1)
	if res.GET.Total() == 0 || res.SCAN.Total() == 0 {
		t.Fatal("no reuse distances recorded")
	}
	// The paper: only a few percent of accesses have reuse distances
	// above 8KB (3.7% GET, 4.5% SCAN). Our substitute store should
	// land in the same regime.
	if res.GETAbove8KB > 0.15 {
		t.Errorf("GET accesses above 8KB reuse distance: %v", res.GETAbove8KB)
	}
	if res.SCANAbove8KB > 0.15 {
		t.Errorf("SCAN accesses above 8KB reuse distance: %v", res.SCANAbove8KB)
	}
}

func TestFig16TQScalesShinjukuDoesNot(t *testing.T) {
	series := Fig16(tiny)
	sj, tq := series[0], series[1]
	// TQ holds 16 cores at every quantum.
	for i, y := range tq.Y {
		if y != 16 {
			t.Fatalf("TQ supported %v cores at q=%vµs, want 16", y, tq.X[i])
		}
	}
	// Shinjuku supports 16 at 5µs but collapses at 0.5µs.
	last := len(sj.Y) - 1
	if sj.Y[last] < 14 {
		t.Errorf("Shinjuku at 5µs supports only %v cores", sj.Y[last])
	}
	if sj.Y[0] > 8 {
		t.Errorf("Shinjuku at 0.5µs supports %v cores, expected a collapse", sj.Y[0])
	}
	if sj.Y[0] >= sj.Y[last] {
		t.Errorf("Shinjuku curve not increasing with quantum: %v", sj.Y)
	}
}

func TestDispatcherThroughputGap(t *testing.T) {
	// Offer 8Mrps of tiny jobs: TQ's dispatcher keeps up better than
	// the centralized one (§6: 14Mrps vs ~5Mrps).
	out := DispatcherThroughput(tiny, 8e6)
	if out["TQ"] <= out["Shinjuku"]*1.5 {
		t.Fatalf("TQ dispatcher throughput %v not well above Shinjuku %v",
			out["TQ"], out["Shinjuku"])
	}
}

func TestExtensionComparisonShapes(t *testing.T) {
	series := ExtensionComparison(tiny)
	if len(series) != 4 {
		t.Fatalf("ExtensionComparison returned %d curves", len(series))
	}
	labels := map[string]bool{}
	for _, s := range series {
		labels[s.Label] = true
		if len(s.Y) == 0 {
			t.Fatalf("curve %s empty", s.Label)
		}
	}
	for _, want := range []string{"TQ", "TQ-LAS", "Concord", "LibPreemptible"} {
		if !labels[want] {
			t.Fatalf("missing curve %q (have %v)", want, labels)
		}
	}
	// LibPreemptible's 1µs-scale preemption cost must cap it below TQ
	// under a tight short-job SLO.
	tq := maxUnderSLOXY(series[0].X, series[0].Y, 50)
	lp := maxUnderSLOXY(series[3].X, series[3].Y, 50)
	if lp >= tq {
		t.Fatalf("LibPreemptible sustained %v, TQ %v under 50µs SLO", lp, tq)
	}
}

func TestMultiDispatcherScalingMonotone(t *testing.T) {
	out := MultiDispatcherScaling(tiny, 40e6)
	if len(out) != 3 {
		t.Fatalf("got %d points", len(out))
	}
	if !(out[1] > 1.5*out[0]) {
		t.Fatalf("2 dispatchers (%v) not >1.5x one (%v)", out[1], out[0])
	}
	if !(out[2] > out[1]) {
		t.Fatalf("4 dispatchers (%v) not above 2 (%v)", out[2], out[1])
	}
}

func TestTable3Smoke(t *testing.T) {
	rows := Table3(tiny)
	if len(rows) != 27 {
		t.Fatalf("Table3 returned %d rows", len(rows))
	}
	means := instrument.Means(rows)
	if means[instrument.TechTQ].OverheadPct >= means[instrument.TechCI].OverheadPct {
		t.Fatal("TQ mean overhead not below CI")
	}
}

// TestOptimalityGapAllRegistryFinite is the acceptance check for the
// UPS-style baseline: every registry entry produces a finite, positive
// optimality gap against oracle-srpt at both operating points, and the
// oracle's own row — identical sweeps divided by themselves — is
// exactly 1 at both.
func TestOptimalityGapAllRegistryFinite(t *testing.T) {
	sc := tiny
	sc.Duration = 10 * sim.Millisecond
	sc.Warmup = sim.Millisecond
	rows := OptimalityGapTable(sc, workload.HighBimodal(), "Short", cluster.Names()...)
	if len(rows) != len(cluster.Names()) {
		t.Fatalf("got %d rows, want one per registry entry (%d)", len(rows), len(cluster.Names()))
	}
	for _, r := range rows {
		for _, g := range []float64{r.Mid, r.Over} {
			if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
				t.Errorf("%s (%s): non-finite or non-positive gap %v", r.Name, r.Display, g)
			}
		}
		if r.Name == "oracle-srpt" && (r.Mid != 1 || r.Over != 1) {
			t.Errorf("oracle's own gap is %v/%v, want exactly 1/1 (determinism broke)", r.Mid, r.Over)
		}
	}
}

// TestCompareMachinesGapCurves checks that CompareMachines fills
// OptimalityGap (one curve per machine per class, one point per rate),
// builds every machine under the given options, and reports a machine
// lacking a requested knob as an error naming it.
func TestCompareMachinesGapCurves(t *testing.T) {
	sc := tiny
	sc.Duration = 10 * sim.Millisecond
	sc.Warmup = sim.Millisecond
	sc.Points = 3
	w := workload.HighBimodal()

	cmp, err := CompareMachines(sc, w, nil, cluster.Options{Discipline: "srpt"}, "tq", "d-fcfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"Short", "Long"} {
		curves := cmp.OptimalityGap[class]
		if len(curves) != 2 {
			t.Fatalf("class %s: %d gap curves, want 2", class, len(curves))
		}
		for _, s := range curves {
			if len(s.Y) != sc.Points {
				t.Fatalf("%s/%s: %d gap points, want %d", class, s.Label, len(s.Y), sc.Points)
			}
			for _, g := range s.Y {
				if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
					t.Errorf("%s/%s: non-finite gap %v", class, s.Label, g)
				}
			}
		}
	}
	// Labels must carry the discipline suffix the option applies.
	if got := cmp.OptimalityGap["Short"][0].Label; got == cluster.MustLookup("tq").Build(cluster.Options{}).Name() {
		t.Errorf("disciplined label %q does not reflect the srpt rewiring", got)
	}

	if _, err := CompareMachines(sc, w, nil, cluster.Options{Discipline: "srpt"}, "tq", "shinjuku"); err == nil || !strings.Contains(err.Error(), `"shinjuku"`) {
		t.Errorf("CompareMachines on a machine without a discipline knob: err = %v, want one naming shinjuku", err)
	}
}

// TestEveryDriverHonoursScaleOverrides runs every simulating driver with
// the scale's SLOs, arrival process and tenant split set and requires
// each simulation it performs to have run under all three: a driver
// that assembles its RunConfig by hand instead of from Scale.base drops
// them silently.
func TestEveryDriverHonoursScaleOverrides(t *testing.T) {
	sc := Scale{
		Duration: 2 * sim.Millisecond,
		Warmup:   200 * sim.Microsecond,
		Points:   2,
		Seed:     1,
		SLOs:     map[string]sim.Time{"*": sim.Micros(100)},
		Arrivals: "mmpp:burst=5,duty=0.2,cycle=500us",
		Tenants:  []workload.Tenant{{Name: "a", Ratio: 0.6}, {Name: "b", Ratio: 0.4}},
	}
	w := workload.HighBimodal()
	for name, drive := range map[string]func(Scale){
		"Fig1":                   func(sc Scale) { Fig1(sc) },
		"Fig2":                   func(sc Scale) { Fig2(sc) },
		"Fig4":                   func(sc Scale) { Fig4(sc) },
		"Fig5And6":               func(sc Scale) { Fig5And6(sc) },
		"Fig7":                   func(sc Scale) { Fig7(sc) },
		"Fig8":                   func(sc Scale) { Fig8(sc) },
		"Fig9":                   func(sc Scale) { Fig9(sc) },
		"Fig10":                  func(sc Scale) { Fig10(sc) },
		"Fig11":                  func(sc Scale) { Fig11(sc) },
		"Fig12":                  func(sc Scale) { Fig12(sc) },
		"Fig16":                  func(sc Scale) { Fig16(sc) },
		"DispatcherThroughput":   func(sc Scale) { DispatcherThroughput(sc, 16e6) },
		"MultiDispatcherScaling": func(sc Scale) { MultiDispatcherScaling(sc, 16e6) },
		"ExtensionComparison":    func(sc Scale) { ExtensionComparison(sc) },
		"CoroutineCountAblation": func(sc Scale) { CoroutineCountAblation(sc, []int{1, 8}) },
		"OptimalityGapTable":     func(sc Scale) { OptimalityGapTable(sc, w, "Short", "tq", "d-fcfs") },
		"CompareMachines":        func(sc Scale) { CompareMachines(sc, w, nil, cluster.Options{}, "tq", "caladan-ws") },
		"CompareRack":            func(sc Scale) { CompareRack(sc, w, 2, "tq", []string{"random", "sew"}) },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := sc
			points := 0
			sc.Progress = func(p cluster.SweepPoint) {
				points++
				got := p.Result.Config
				if got.Arrivals != sc.Arrivals || !reflect.DeepEqual(got.SLOs, sc.SLOs) || !reflect.DeepEqual(got.Tenants, sc.Tenants) {
					t.Errorf("%s at %.3g rps ran with arrivals %q, SLOs %v, tenants %v; the scale's overrides were dropped",
						p.Result.System, p.Rate, got.Arrivals, got.SLOs, got.Tenants)
				}
			}
			drive(sc)
			if points == 0 {
				t.Error("the driver simulated nothing")
			}
		})
	}
}
