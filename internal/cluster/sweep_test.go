package cluster

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	sweepDur  = 20 * sim.Millisecond
	sweepWarm = 2 * sim.Millisecond
)

func tqFactory() Machine { return NewTQ(NewTQParams()) }

// sweepBase is the tests' sweep template: w at the test durations, rooted
// at seed.
func sweepBase(w *workload.Workload, seed uint64) RunConfig {
	return RunConfig{Workload: w, Duration: sweepDur, Warmup: sweepWarm, Seed: seed}
}

// planSweep runs one curve on its own plan: Plan.Sweep, Run, Results.
func planSweep(mf MachineFactory, base RunConfig, rates []float64, opt SweepOptions) []*Result {
	p := NewPlan(opt)
	c := p.Sweep(mf, base, rates)
	p.Run()
	return c.Results
}

func TestSweepUsesPerPointSeeds(t *testing.T) {
	w := workload.HighBimodal()
	rates := RatesUpTo(0.6*w.MaxLoad(16), 3)
	results := Sweep(NewTQ(NewTQParams()), sweepBase(w, 1), rates)
	seen := map[uint64]bool{}
	for i, r := range results {
		if r.Config.Seed == 1 {
			t.Errorf("point %d runs under the raw sweep seed; want a derived seed", i)
		}
		if want := rng.PointSeed(1, uint64(i)); r.Config.Seed != want {
			t.Errorf("point %d seed %d, want PointSeed(1,%d)=%d", i, r.Config.Seed, i, want)
		}
		if seen[r.Config.Seed] {
			t.Errorf("point %d reuses another point's seed %d", i, r.Config.Seed)
		}
		seen[r.Config.Seed] = true
	}
}

// TestStampCarriesTheTemplate pins what a sweep point is: the template
// with Rate and Seed replaced — SLOs, arrival process and tenants arrive
// in every point's Result — and that a template carrying a recorder is
// refused where the sweep is declared.
func TestStampCarriesTheTemplate(t *testing.T) {
	w := workload.HighBimodal()
	base := sweepBase(w, 9)
	base.SLOs = map[string]sim.Time{"*": sim.Micros(50)}
	base.Arrivals = "mmpp:burst=5,duty=0.2,cycle=500us"
	base.Tenants = []workload.Tenant{{Name: "a", Ratio: 0.6}, {Name: "b", Ratio: 0.4}}
	rates := RatesUpTo(0.5*w.MaxLoad(16), 3)
	cfgs := stamp(base, rates)
	for i, cfg := range cfgs {
		want := base
		want.Rate, want.Seed = rates[i], rng.PointSeed(base.Seed, uint64(i))
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("point %d is %+v, want the template with only Rate and Seed replaced: %+v", i, cfg, want)
		}
	}
	for i, res := range planSweep(tqFactory, base, rates, SweepOptions{}) {
		if !reflect.DeepEqual(res.Config, cfgs[i]) {
			t.Errorf("point %d ran under %+v, want %+v", i, res.Config, cfgs[i])
		}
		if len(res.PerTenant) != 2 || res.Tenant("a") == nil || res.Tenant("nope") != nil {
			t.Errorf("point %d: the template's tenants did not reach the run: %+v", i, res.PerTenant)
		}
	}

	base.Obs = obs.NewRing(16)
	for name, declare := range map[string]func(){
		"Sweep":             func() { Sweep(tqFactory(), base, rates) },
		"MaxRateUnder":      func() { MaxRateUnder(tqFactory(), base, rates, func(*Result) bool { return true }) },
		"Plan.Sweep":        func() { NewPlan(SweepOptions{}).Sweep(tqFactory, base, rates) },
		"Plan.MaxRateUnder": func() { NewPlan(SweepOptions{}).MaxRateUnder(tqFactory, base, rates, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a template with an Obs recorder", name)
				}
			}()
			declare()
		}()
	}
}

func TestParallelSweepMatchesSequentialExactly(t *testing.T) {
	w := workload.HighBimodal()
	rates := RatesUpTo(0.7*w.MaxLoad(16), 4)
	seq := Sweep(NewTQ(NewTQParams()), sweepBase(w, 7), rates)
	for _, workers := range []int{1, 2, 4, 0} {
		par := planSweep(tqFactory, sweepBase(w, 7), rates, SweepOptions{Workers: workers})
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Fatalf("workers=%d: point %d differs from sequential run\nseq: %v\npar: %v",
					workers, i, seq[i], par[i])
			}
		}
	}
}

func TestParallelSweepFreshMachinePerPoint(t *testing.T) {
	// The factory must be invoked once per point, so no machine state
	// can leak between points even if a Machine implementation carried
	// some.
	w := workload.HighBimodal()
	rates := RatesUpTo(0.5*w.MaxLoad(16), 3)
	built := 0
	planSweep(func() Machine {
		built++
		return NewTQ(NewTQParams())
	}, sweepBase(w, 1), rates, SweepOptions{Workers: 1})
	if built != len(rates) {
		t.Fatalf("factory invoked %d times for %d points", built, len(rates))
	}
}

func TestParallelSweepProgress(t *testing.T) {
	w := workload.HighBimodal()
	rates := RatesUpTo(0.5*w.MaxLoad(16), 4)
	var points []SweepPoint
	planSweep(tqFactory, sweepBase(w, 1), rates, SweepOptions{
		Workers: 2,
		OnPoint: func(p SweepPoint) { points = append(points, p) },
	})
	if len(points) != len(rates) {
		t.Fatalf("OnPoint fired %d times for %d points", len(points), len(rates))
	}
	seen := map[int]bool{}
	for i, p := range points {
		if p.Done != i+1 || p.Total != len(rates) {
			t.Errorf("point %d: Done/Total = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(rates))
		}
		if p.Index < 0 || p.Index >= len(rates) || seen[p.Index] {
			t.Errorf("point %d: bad or duplicate index %d", i, p.Index)
		}
		seen[p.Index] = true
		if p.Result == nil || p.Result.Events == 0 {
			t.Errorf("point %d: missing result or zero event count", i)
		}
		if p.Wall <= 0 {
			t.Errorf("point %d: non-positive wall time %v", i, p.Wall)
		}
		if p.EventsPerSec() <= 0 {
			t.Errorf("point %d: non-positive events/sec", i)
		}
		if p.Seed != rng.PointSeed(1, uint64(p.Index)) {
			t.Errorf("point %d: seed %d not derived from index %d", i, p.Seed, p.Index)
		}
	}
}

func TestRatesUpToRejectsDegenerateInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		max  float64
		n    int
	}{
		{"zero points", 1e6, 0},
		{"negative points", 1e6, -3},
		{"zero max", 0, 4},
		{"negative max", -1e6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("RatesUpTo(%v, %d) did not panic", tc.max, tc.n)
				}
			}()
			RatesUpTo(tc.max, tc.n)
		})
	}
}

func TestParallelSweepEmptyGrid(t *testing.T) {
	w := workload.HighBimodal()
	out := planSweep(tqFactory, sweepBase(w, 1), nil, SweepOptions{})
	if len(out) != 0 {
		t.Fatalf("empty grid returned %d results", len(out))
	}
}

func TestBestCaladanMachineMatchesFunction(t *testing.T) {
	w := workload.Exp1()
	cfg := RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: sweepDur,
		Warmup:   sweepWarm,
		Seed:     3,
	}
	m := NewBestCaladan("Exp")
	if m.Name() != "Caladan" {
		t.Fatalf("NewBestCaladan name %q", m.Name())
	}
	if !reflect.DeepEqual(m.Run(cfg), BestCaladan(cfg, "Exp")) {
		t.Fatal("NewBestCaladan.Run differs from BestCaladan")
	}
}

// stubMachine answers at once with a Result that only echoes its
// configuration — all the pool's scheduling tests read — after telling
// ran, when set, which point it was asked for.
type stubMachine struct{ ran func(RunConfig) }

func (stubMachine) Name() string { return "stub" }

func (m stubMachine) Run(cfg RunConfig) *Result {
	if m.ran != nil {
		m.ran(cfg)
	}
	return &Result{System: "stub", Config: cfg, Events: 1}
}

// TestPlanInvariantToWorkersAndStartOrder runs Figure 7's six curves
// (three machine families × two workloads) on one plan at test scale and
// requires every Result to equal the sequential Sweep's, field for
// field, for 1, 2, 3 and 8 workers and with the start order reversed.
func TestPlanInvariantToWorkersAndStartOrder(t *testing.T) {
	const dur = 4 * sim.Millisecond
	base := func(w *workload.Workload) RunConfig {
		return RunConfig{Workload: w, Duration: dur, Warmup: 400 * sim.Microsecond, Seed: 7}
	}
	type curveSpec struct {
		mf    MachineFactory
		w     *workload.Workload
		rates []float64
	}
	var specs []curveSpec
	for _, w := range []*workload.Workload{workload.ExtremeBimodal(), workload.HighBimodal()} {
		rates := RatesUpTo(0.98*w.MaxLoad(16), 3)
		for _, mf := range []MachineFactory{
			tqFactory,
			func() Machine { return NewShinjuku(NewShinjukuParams(sim.Micros(5))) },
			func() Machine { return NewBestCaladan("Short") },
		} {
			specs = append(specs, curveSpec{mf, w, rates})
		}
	}
	want := make([][]*Result, len(specs))
	for i, s := range specs {
		want[i] = Sweep(s.mf(), base(s.w), s.rates)
	}

	run := func(workers int, reversed bool) {
		var started []float64 // cost keys in completion order
		p := NewPlan(SweepOptions{Workers: workers, OnPoint: func(sp SweepPoint) {
			started = append(started, sp.Rate*float64(dur))
		}})
		curves := make([]*Curve, len(specs))
		for i, s := range specs {
			curves[i] = p.Sweep(s.mf, base(s.w), s.rates)
		}
		if reversed {
			for _, pt := range p.free {
				pt.cost = -pt.cost
			}
		}
		p.Run()
		for i := range specs {
			if len(curves[i].Results) != len(want[i]) {
				t.Fatalf("workers=%d reversed=%v: curve %d has %d results, want %d",
					workers, reversed, i, len(curves[i].Results), len(want[i]))
			}
			for j := range want[i] {
				if !reflect.DeepEqual(want[i][j], curves[i].Results[j]) {
					t.Fatalf("workers=%d reversed=%v: curve %d point %d differs from the sequential sweep\nseq:  %v\nplan: %v",
						workers, reversed, i, j, want[i][j], curves[i].Results[j])
				}
			}
		}
		if workers != 1 {
			return
		}
		// One worker completes points in the order it starts them:
		// costliest first, or cheapest first once the ranks are negated.
		for i := 1; i < len(started); i++ {
			if a, b := started[i-1], started[i]; (!reversed && a < b) || (reversed && a > b) {
				t.Fatalf("reversed=%v: point %d (cost %v) started before point %d (cost %v)", reversed, i-1, a, i, b)
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		run(workers, false)
	}
	run(1, true)
	run(3, true)
}

// TestPlanMaxRateUnderMatchesSequential checks the chain form of the
// knee search against the sequential reference on a real SLO knee and on
// grids whose first point violates, whose last point passes, and whose
// knee is in the middle — all four searches sharing one pool, so they
// run both with chains >= workers and with workers to spare.
func TestPlanMaxRateUnderMatchesSequential(t *testing.T) {
	w := workload.ExtremeBimodal()
	rates := RatesUpTo(w.MaxLoad(16), 6)
	stub := func() Machine { return stubMachine{} }
	searches := []struct {
		name string
		mf   MachineFactory
		ok   func(*Result) bool
	}{
		{"slo knee", tqFactory, func(r *Result) bool { return r.P999EndToEndUs("Short") <= 50 }},
		{"first violates", stub, func(*Result) bool { return false }},
		{"last passes", stub, func(*Result) bool { return true }},
		{"knee in the middle", stub, func(r *Result) bool { return r.Config.Rate <= rates[2] }},
	}
	want := make([]float64, len(searches))
	for i, s := range searches {
		want[i] = MaxRateUnder(s.mf(), sweepBase(w, 1), rates, s.ok)
	}
	if want[0] <= 0 || want[0] >= rates[len(rates)-1] {
		t.Fatalf("SLO knee %v not inside the grid (too coarse for the test)", want[0])
	}
	if want[1] != 0 || want[2] != rates[len(rates)-1] || want[3] != rates[2] {
		t.Fatalf("reference knees %v do not match the cases' construction", want)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPlan(SweepOptions{Workers: workers})
		knees := make([]*Knee, len(searches))
		for i, s := range searches {
			knees[i] = p.MaxRateUnder(s.mf, sweepBase(w, 1), rates, s.ok)
		}
		p.Run()
		for i, s := range searches {
			if got := knees[i].Rate(); got != want[i] {
				t.Errorf("workers=%d %s: chain knee %v != sequential knee %v", workers, s.name, got, want[i])
			}
		}
	}
}

// chainGrid declares chains stub chains of n points on p, chain c
// violating first at knee(c), and returns what each chain's points were
// asked to run, by index.
func chainGrid(p *Plan, chains, n int, knee func(c int) int) (built [][]int, handles []*Chain) {
	w := workload.ExtremeBimodal()
	rates := RatesUpTo(w.MaxLoad(16), n)
	cfgs := stamp(sweepBase(w, 1), rates)
	built = make([][]int, chains)
	var mu sync.Mutex
	for c := 0; c < chains; c++ {
		built[c] = make([]int, n)
		handles = append(handles, p.Chain(cfgs, func(i int, cfg RunConfig) (*Result, bool) {
			mu.Lock()
			built[c][i]++
			mu.Unlock()
			runtime.Gosched() // let another worker's verdict land first now and then
			return stubMachine{}.Run(cfg), i < knee(c)
		}))
	}
	return built, handles
}

// TestChainsStopAtTheKnee counts what the pool builds: every point up to
// and including a chain's first violation exactly once; past it nothing
// when one worker serves the chains, and never more than Workers-1
// run-ahead points however many workers had nothing better to do.
func TestChainsStopAtTheKnee(t *testing.T) {
	const n = 12
	knee := func(c int) int { return (5*c + 3) % n }
	for _, workers := range []int{1, 2, 3, 8} {
		for _, chains := range []int{1, 2, 9} {
			p := NewPlan(SweepOptions{Workers: workers})
			built, handles := chainGrid(p, chains, n, knee)
			p.Run()
			for c := range built {
				k := knee(c)
				if handles[c].Passed != k {
					t.Errorf("workers=%d chains=%d: chain %d passed %d points, want %d", workers, chains, c, handles[c].Passed, k)
				}
				past := 0
				for i, times := range built[c] {
					switch {
					case times > 1, i <= k && times != 1:
						t.Errorf("workers=%d chains=%d: chain %d point %d built %d times", workers, chains, c, i, times)
					case i > k && times == 1:
						past++
					}
				}
				if past > workers-1 {
					t.Errorf("workers=%d chains=%d: chain %d built %d points past its violation, want at most %d", workers, chains, c, past, workers-1)
				}
			}
		}
	}
}

// TestChainsRunAheadOnlyWhenAWorkerWouldIdle drives the plan's claim and
// settle steps by hand, as W workers finishing in an arbitrary order
// would, so the rule can be checked at every single start: while at
// least as many chains are open as there are workers, the point started
// is never ahead of an unanswered one — and at no time is it past a
// violation already known, even one found by a run-ahead point while an
// earlier verdict is still out.
func TestChainsRunAheadOnlyWhenAWorkerWouldIdle(t *testing.T) {
	const n, chains, workers = 10, 7, 4
	knee := func(c int) int { return (3*c + 2) % n }
	p := NewPlan(SweepOptions{Workers: workers})
	_, handles := chainGrid(p, chains, n, knee)
	p.workers = workers // as Run sets it

	order := rng.New(5)
	var running []*planPoint
	ranAhead := 0
	violated := map[*Chain]int{} // lowest point known to have failed
	for {
		for len(running) < workers {
			open := 0
			for _, c := range handles {
				if c.open() {
					open++
				}
			}
			pt, _ := p.claim()
			if pt == nil {
				break
			}
			if at, known := violated[pt.chain]; known && pt.index > at {
				t.Fatalf("point %d started after point %d of its chain was known to violate", pt.index, at)
			}
			if ahead := pt.index - pt.chain.Passed; ahead > 0 {
				ranAhead++
				if open >= workers {
					t.Fatalf("point %d started %d ahead of its chain's unanswered point with %d chains open for %d workers",
						pt.index, ahead, open, workers)
				}
			}
			running = append(running, pt)
		}
		if len(running) == 0 {
			break
		}
		i := order.Intn(len(running))
		pt := running[i]
		running = append(running[:i], running[i+1:]...)
		_, pass := pt.run()
		pt.chain.settle(pt.index, pass)
		if at, known := violated[pt.chain]; !pass && (!known || pt.index < at) {
			violated[pt.chain] = pt.index
		}
	}
	for c, h := range handles {
		if h.Passed != knee(c) {
			t.Errorf("chain %d passed %d points, want %d", c, h.Passed, knee(c))
		}
	}
	if ranAhead == 0 {
		t.Error("no point ever ran ahead: the tail of the plan left workers idle")
	}
}

// TestPlanOnPoint checks the progress contract on a plan mixing curves
// and chains: one call per executed point, never two at once, Done
// counting up by one, Total the declared size, Index and Seed the
// point's place in its own curve.
func TestPlanOnPoint(t *testing.T) {
	w := workload.ExtremeBimodal()
	rates := RatesUpTo(w.MaxLoad(16), 5)
	var executed atomic.Int64
	stub := func() Machine { return stubMachine{ran: func(RunConfig) { executed.Add(1) }} }

	var inCallback atomic.Int32
	var points []SweepPoint
	p := NewPlan(SweepOptions{Workers: 4, OnPoint: func(sp SweepPoint) {
		if inCallback.Add(1) != 1 {
			t.Error("OnPoint called concurrently")
		}
		runtime.Gosched()
		points = append(points, sp)
		inCallback.Add(-1)
	}})
	// Seeds 100 and 200 root the curves, 300.. the chains.
	p.Sweep(stub, sweepBase(w, 100), rates)
	p.Sweep(stub, sweepBase(w, 200), rates)
	for c := 0; c < 3; c++ {
		knee := rates[c+1]
		p.MaxRateUnder(stub, sweepBase(w, uint64(300+c)), rates, func(r *Result) bool { return r.Config.Rate < knee })
	}
	p.Run()

	if int64(len(points)) != executed.Load() {
		t.Fatalf("OnPoint fired %d times for %d executed points", len(points), executed.Load())
	}
	seen := map[uint64]bool{}
	curvePoints := 0
	for i, sp := range points {
		if sp.Done != i+1 || sp.Total != 5*len(rates) {
			t.Errorf("call %d: Done/Total = %d/%d, want %d/%d", i, sp.Done, sp.Total, i+1, 5*len(rates))
		}
		if seen[sp.Seed] {
			t.Errorf("call %d: point with seed %d reported twice", i, sp.Seed)
		}
		seen[sp.Seed] = true
		if sp.Index < 0 || sp.Index >= len(rates) || sp.Rate != rates[sp.Index] || sp.Result.Config.Seed != sp.Seed {
			t.Errorf("call %d: index %d, rate %v, seed %d do not describe one point of the grid", i, sp.Index, sp.Rate, sp.Seed)
			continue
		}
		root := uint64(0)
		for _, r := range []uint64{100, 200, 300, 301, 302} {
			if sp.Seed == rng.PointSeed(r, uint64(sp.Index)) {
				root = r
			}
		}
		switch {
		case root == 0:
			t.Errorf("call %d: seed %d is not PointSeed(root, %d) for any declared curve", i, sp.Seed, sp.Index)
		case root < 300:
			curvePoints++
		}
	}
	if curvePoints != 2*len(rates) {
		t.Errorf("%d curve points reported, want every declared one (%d)", curvePoints, 2*len(rates))
	}
}

// TestSweepPointWallExcludesOtherCallbacks pins the telemetry fix: a
// point's Wall is read before the worker queues for the serialized
// OnPoint, so a slow callback on one point does not inflate the others.
func TestSweepPointWallExcludesOtherCallbacks(t *testing.T) {
	const slow = 60 * time.Millisecond
	w := workload.ExtremeBimodal()
	var walls []time.Duration
	planSweep(func() Machine { return stubMachine{} }, sweepBase(w, 1), RatesUpTo(w.MaxLoad(16), 4),
		SweepOptions{Workers: 4, OnPoint: func(sp SweepPoint) {
			walls = append(walls, sp.Wall)
			time.Sleep(slow)
		}})
	for i, wall := range walls {
		if wall >= slow/2 {
			t.Errorf("point %d: wall %v for an instant simulation; it includes another point's %v callback", i, wall, slow)
		}
	}
}

// TestPlanEmptyAndSinglePoint: degenerate plans must return, not wait on
// work that will never arrive.
func TestPlanEmptyAndSinglePoint(t *testing.T) {
	NewPlan(SweepOptions{}).Run()
	NewPlan(SweepOptions{Workers: 8}).Run()

	w := workload.ExtremeBimodal()
	cfg := stamp(sweepBase(w, 1), []float64{1e6})
	for _, workers := range []int{0, 1, 8} {
		p := NewPlan(SweepOptions{Workers: workers})
		curve := p.Points(cfg, func(_ int, cfg RunConfig) *Result { return stubMachine{}.Run(cfg) })
		p.Run()
		if len(curve.Results) != 1 || curve.Results[0] == nil {
			t.Fatalf("workers=%d: single-point curve returned %v", workers, curve.Results)
		}
		for _, pass := range []bool{true, false} {
			p := NewPlan(SweepOptions{Workers: workers})
			chain := p.Chain(cfg, func(_ int, cfg RunConfig) (*Result, bool) { return stubMachine{}.Run(cfg), pass })
			empty := p.Chain(nil, nil)
			p.Run()
			if want := map[bool]int{true: 1, false: 0}[pass]; chain.Passed != want || empty.Passed != 0 {
				t.Fatalf("workers=%d pass=%v: single-point chain passed %d, empty chain %d", workers, pass, chain.Passed, empty.Passed)
			}
		}
	}
}
