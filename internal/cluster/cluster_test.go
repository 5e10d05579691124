package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testCfg returns a small, fast run configuration.
func testCfg(w *workload.Workload, rate float64) RunConfig {
	return RunConfig{
		Workload: w,
		Rate:     rate,
		Duration: 50 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Seed:     1,
	}
}

func TestCentralizedPSLowLoadSojournNearService(t *testing.T) {
	// At 1% load, jobs should almost never queue: p99.9 sojourn within
	// a few quanta of the service time.
	w := workload.Fixed("unit", sim.Micros(10))
	m := NewCentralizedPS(16, sim.Micros(2), 0)
	res := m.Run(testCfg(w, 0.01*w.MaxLoad(16)))
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	p999 := res.P999SojournUs("unit")
	if p999 < 10 || p999 > 12 {
		t.Fatalf("p99.9 sojourn %vµs, want close to 10µs", p999)
	}
}

func TestCentralizedPSThroughputMatchesOfferedLoad(t *testing.T) {
	w := workload.Fixed("unit", sim.Micros(5))
	m := NewCentralizedPS(16, sim.Micros(2), 0)
	rate := 0.5 * w.MaxLoad(16)
	res := m.Run(testCfg(w, rate))
	if math.Abs(res.Throughput-rate) > rate*0.05 {
		t.Fatalf("throughput %v, want about offered %v", res.Throughput, rate)
	}
}

func TestCentralizedPSPreemptionOverheadHurts(t *testing.T) {
	// With large preemption overhead and small quanta, capacity drops:
	// at 70% load the overloaded system must show far higher tail
	// slowdown.
	w := workload.Section2Bimodal()
	rate := 0.7 * w.MaxLoad(16)
	free := NewCentralizedPS(16, sim.Micros(1), 0).Run(testCfg(w, rate))
	costly := NewCentralizedPS(16, sim.Micros(1), sim.Micros(1)).Run(testCfg(w, rate))
	if costly.Throughput >= free.Throughput {
		t.Fatalf("1µs overhead did not reduce throughput: %v >= %v",
			costly.Throughput, free.Throughput)
	}
}

func TestCentralizedPSSmallQuantaHelpShortJobs(t *testing.T) {
	// Figure 1's core claim: with zero overhead, smaller quanta give
	// lower tail slowdown for the bimodal workload at high load.
	w := workload.Section2Bimodal()
	rate := 0.8 * w.MaxLoad(16)
	small := NewCentralizedPS(16, sim.Micros(1), 0).Run(testCfg(w, rate))
	large := NewCentralizedPS(16, sim.Micros(10), 0).Run(testCfg(w, rate))
	ss, ls := small.P999Slowdown("Short"), large.P999Slowdown("Short")
	if ss >= ls {
		t.Fatalf("small quanta did not improve short-job slowdown: 1µs=%v 10µs=%v", ss, ls)
	}
}

func TestTQCompletesAndConserves(t *testing.T) {
	w := workload.ExtremeBimodal()
	m := NewTQ(NewTQParams())
	res := m.Run(testCfg(w, 1e6))
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	for i := range res.PerClass {
		c := &res.PerClass[i]
		if c.Slowdown.Min() < 1 {
			t.Fatalf("class %s has slowdown < 1 (%v): sojourn below service time",
				c.Name, c.Slowdown.Min())
		}
	}
}

func TestTQDeterministicAcrossRuns(t *testing.T) {
	w := workload.HighBimodal()
	cfg := testCfg(w, 0.5*w.MaxLoad(16))
	a := NewTQ(NewTQParams()).Run(cfg)
	b := NewTQ(NewTQParams()).Run(cfg)
	if a.Completed != b.Completed {
		t.Fatalf("same seed, different completions: %d vs %d", a.Completed, b.Completed)
	}
	if a.P999SojournUs("Short") != b.P999SojournUs("Short") {
		t.Fatalf("same seed, different p99.9: %v vs %v",
			a.P999SojournUs("Short"), b.P999SojournUs("Short"))
	}
}

func TestTQSeedChangesRun(t *testing.T) {
	w := workload.HighBimodal()
	cfg := testCfg(w, 0.5*w.MaxLoad(16))
	a := NewTQ(NewTQParams()).Run(cfg)
	cfg.Seed = 2
	b := NewTQ(NewTQParams()).Run(cfg)
	if a.Completed == b.Completed && a.P999SojournUs("Short") == b.P999SojournUs("Short") {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestTQPSBeatsFCFSForShortJobs(t *testing.T) {
	// The heart of the paper: preemptive PS protects short jobs from
	// head-of-line blocking that FCFS suffers.
	w := workload.ExtremeBimodal()
	rate := 0.6 * w.MaxLoad(16)
	ps := NewTQ(NewTQParams()).Run(testCfg(w, rate))
	fcfs := NewTQFCFS(NewTQParams()).Run(testCfg(w, rate))
	p, f := ps.P999SojournUs("Short"), fcfs.P999SojournUs("Short")
	if p >= f {
		t.Fatalf("PS short-job p99.9 (%vµs) not better than FCFS (%vµs)", p, f)
	}
	if f < 100 {
		t.Fatalf("FCFS short-job p99.9 suspiciously low (%vµs): HOL blocking not modelled?", f)
	}
}

func TestTQJSQBeatsRandomBalancing(t *testing.T) {
	w := workload.RocksDB(0.005)
	rate := 0.6 * w.MaxLoad(16)
	jsq := NewTQ(NewTQParams()).Run(testCfg(w, rate))
	rnd := NewTQRand(NewTQParams()).Run(testCfg(w, rate))
	j, r := jsq.P999SojournUs("GET"), rnd.P999SojournUs("GET")
	if j >= r {
		t.Fatalf("JSQ GET p99.9 (%vµs) not better than random (%vµs)", j, r)
	}
}

func TestTQProbeOverheadReducesCapacity(t *testing.T) {
	// TQ-IC's 60% probing overhead must reduce sustainable throughput.
	w := workload.RocksDB(0.005)
	rate := 0.85 * w.MaxLoad(16)
	cfg := testCfg(w, rate)
	tq := NewTQ(NewTQParams()).Run(cfg)
	ic := NewTQIC(NewTQParams()).Run(cfg)
	// At 85% of base capacity, the IC variant (capacity scaled by
	// 1/1.6) is overloaded: completions fall behind offered load.
	if ic.Throughput >= tq.Throughput {
		t.Fatalf("IC throughput %v >= TQ %v", ic.Throughput, tq.Throughput)
	}
}

func TestTQSlowYieldHurtsAtSmallQuanta(t *testing.T) {
	w := workload.RocksDB(0.5) // preemption-heavy: 50% SCANs
	p := NewTQParams()
	p.Quantum = sim.Micros(1)
	rate := 0.75 * w.MaxLoad(16)
	base := NewTQ(p).Run(testCfg(w, rate))
	slow := NewTQSlowYield(p).Run(testCfg(w, rate))
	if slow.Throughput >= base.Throughput {
		t.Fatalf("slow yield throughput %v >= base %v", slow.Throughput, base.Throughput)
	}
}

func TestTQVariantNames(t *testing.T) {
	p := NewTQParams()
	cases := map[string]*TQ{
		"TQ":            NewTQ(p),
		"TQ-IC":         NewTQIC(p),
		"TQ-SLOW-YIELD": NewTQSlowYield(p),
		"TQ-TIMING":     NewTQTiming(p),
		"TQ-RAND":       NewTQRand(p),
		"TQ-POWER-TWO":  NewTQPowerTwo(p),
		"TQ-FCFS":       NewTQFCFS(p),
	}
	for want, m := range cases {
		if m.Name() != want {
			t.Errorf("variant name %q, want %q", m.Name(), want)
		}
	}
}

func TestShinjukuInterruptOverheadCostsThroughput(t *testing.T) {
	// High Bimodal at high load: Shinjuku's 1µs interrupts on every
	// 5µs quantum of the 100µs jobs burn ~17% of worker capacity.
	w := workload.HighBimodal()
	rate := 0.9 * w.MaxLoad(16)
	cfg := testCfg(w, rate)
	sj := NewShinjuku(NewShinjukuParams(sim.Micros(5))).Run(cfg)
	tq := NewTQ(NewTQParams()).Run(cfg)
	if sj.Throughput >= tq.Throughput {
		t.Fatalf("Shinjuku throughput %v >= TQ %v at 90%% load", sj.Throughput, tq.Throughput)
	}
}

func TestShinjukuMeasuredQuantumInflatesUnderLoad(t *testing.T) {
	// With many workers and small quanta, the dispatcher falls behind
	// and realized preemption intervals exceed the target (Figure 16's
	// failure mode).
	w := workload.Fixed("long", sim.Millisecond)
	p := NewShinjukuParams(500 * sim.Nanosecond)
	p.Workers = 16
	m := NewShinjuku(p)
	cfg := RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: 20 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
		Seed:     1,
	}
	_, achieved := m.RunMeasured(cfg)
	if achieved.Len() == 0 {
		t.Fatal("no preemptions measured")
	}
	mean := achieved.Mean()
	if mean <= float64(p.Quantum)*1.1 {
		t.Fatalf("16 workers at 0.5µs quanta: mean achieved quantum %vns, expected >10%% over target %vns",
			mean, p.Quantum)
	}

	// A single worker must be schedulable accurately.
	p1 := NewShinjukuParams(sim.Micros(5))
	p1.Workers = 1
	cfg1 := cfg
	cfg1.Rate = 0.6 * w.MaxLoad(1)
	_, a1 := NewShinjuku(p1).RunMeasured(cfg1)
	if a1.Len() == 0 {
		t.Fatal("no preemptions measured for single worker")
	}
	if m := a1.Mean(); m > float64(p1.Quantum)*1.1 {
		t.Fatalf("single worker at 5µs quanta: mean achieved %vns exceeds 110%% of target", m)
	}
}

func TestCaladanFCFSHurtsShortJobs(t *testing.T) {
	w := workload.ExtremeBimodal()
	rate := 0.6 * w.MaxLoad(16)
	cal := NewCaladan(NewCaladanParams(IOKernel)).Run(testCfg(w, rate))
	tq := NewTQ(NewTQParams()).Run(testCfg(w, rate))
	c, q := cal.P999SojournUs("Short"), tq.P999SojournUs("Short")
	if c <= q {
		t.Fatalf("Caladan short-job p99.9 (%vµs) not worse than TQ (%vµs)", c, q)
	}
}

func TestCaladanLongJobsBenefitFromFCFS(t *testing.T) {
	// At medium load FCFS prioritizes long jobs: Caladan's long-job
	// latency beats TQ's (the paper notes this explicitly).
	w := workload.ExtremeBimodal()
	rate := 0.5 * w.MaxLoad(16)
	cal := NewCaladan(NewCaladanParams(IOKernel)).Run(testCfg(w, rate))
	tq := NewTQ(NewTQParams()).Run(testCfg(w, rate))
	c, q := cal.P999SojournUs("Long"), tq.P999SojournUs("Long")
	if c >= q {
		t.Fatalf("Caladan long-job p99.9 (%vµs) not better than TQ (%vµs) at medium load", c, q)
	}
}

func TestCaladanWorkStealingUsesIdleCores(t *testing.T) {
	// With stealing, a burst steered to one core spreads across idle
	// cores: short jobs shouldn't all wait behind the steered queue.
	// Compare against utilization: at 30% load with 16 cores, p50
	// should stay near the service time.
	w := workload.Fixed("unit", sim.Micros(10))
	m := NewCaladan(NewCaladanParams(IOKernel))
	res := m.Run(testCfg(w, 0.3*w.MaxLoad(16)))
	med := res.Class("unit").Sojourn.Median() / 1000
	if med > 12 {
		t.Fatalf("median sojourn %vµs with idle cores available, want near 10µs", med)
	}
}

func TestCaladanDirectpathAvoidsIOKernelCap(t *testing.T) {
	// Exp(1) at 16 cores has a ~14Mrps capacity, beyond the IOKernel's
	// per-packet ceiling; directpath must complete more.
	w := workload.Exp1()
	rate := 0.75 * w.MaxLoad(16)
	cfg := RunConfig{Workload: w, Rate: rate, Duration: 20 * sim.Millisecond, Warmup: 2 * sim.Millisecond, Seed: 3}
	iok := NewCaladan(NewCaladanParams(IOKernel)).Run(cfg)
	dp := NewCaladan(NewCaladanParams(Directpath)).Run(cfg)
	if dp.Throughput <= iok.Throughput {
		t.Fatalf("directpath throughput %v <= iokernel %v at 12Mrps offered", dp.Throughput, iok.Throughput)
	}
}

func TestBestCaladanPicksBetterMode(t *testing.T) {
	w := workload.Exp1()
	rate := 0.75 * w.MaxLoad(16)
	cfg := RunConfig{Workload: w, Rate: rate, Duration: 20 * sim.Millisecond, Warmup: 2 * sim.Millisecond, Seed: 3}
	best := BestCaladan(cfg, "Exp")
	if best.System != "Caladan-directpath" {
		t.Fatalf("BestCaladan picked %s for Exp(1) at high rate", best.System)
	}
}

func TestSweepShapes(t *testing.T) {
	w := workload.HighBimodal()
	rates := RatesUpTo(w.MaxLoad(16), 4)
	if len(rates) != 4 || rates[3] != w.MaxLoad(16) {
		t.Fatalf("RatesUpTo returned %v", rates)
	}
	m := NewTQ(NewTQParams())
	results := Sweep(m, RunConfig{Workload: w, Duration: 20 * sim.Millisecond, Warmup: 2 * sim.Millisecond, Seed: 1}, rates[:2])
	if len(results) != 2 {
		t.Fatalf("Sweep returned %d results", len(results))
	}
	s := LatencySeries("tq", "Short", results)
	if len(s.X) != 2 || s.X[0] != rates[0] {
		t.Fatalf("LatencySeries malformed: %+v", s)
	}
	if s.Y[0] <= 0 {
		t.Fatal("latency series has non-positive latency")
	}
}

func TestMaxRateUnderFindsKnee(t *testing.T) {
	// The SLO-satisfying max rate must be positive and below capacity.
	w := workload.ExtremeBimodal()
	rates := RatesUpTo(w.MaxLoad(16), 8)
	m := NewTQ(NewTQParams())
	best := MaxRateUnder(m, RunConfig{Workload: w, Duration: 20 * sim.Millisecond, Warmup: 2 * sim.Millisecond, Seed: 1}, rates, func(r *Result) bool {
		return r.P999EndToEndUs("Short") <= 50
	})
	if best <= 0 {
		t.Fatal("no rate satisfied the 50µs SLO")
	}
	if best >= w.MaxLoad(16) {
		t.Fatal("SLO satisfied even at full capacity (suspicious)")
	}
}

func TestRunConfigValidation(t *testing.T) {
	w := workload.Exp1()
	bad := []RunConfig{
		{Workload: nil, Rate: 1, Duration: 10, Warmup: 1},
		{Workload: w, Rate: 0, Duration: 10, Warmup: 1},
		{Workload: w, Rate: 1, Duration: 0, Warmup: 0},
		{Workload: w, Rate: 1, Duration: 10, Warmup: 10},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewTQ(NewTQParams()).Run(cfg)
		}()
	}
}

func TestTQRXQueueDropsUnderSaturation(t *testing.T) {
	// Offer ~7x the dispatcher's capacity: the RX ring must drop —
	// reported by the Result itself, not just as trace events — and
	// throughput must plateau at the dispatcher's service rate rather
	// than queueing unboundedly.
	w := workload.Fixed("tiny", 100*sim.Nanosecond)
	p := NewTQParams()
	p.Workers = 64
	p.Coroutines = 16
	rec := obs.NewRing(1 << 22)
	res := NewTQ(p).Run(RunConfig{
		Workload: w,
		Rate:     100e6, // dispatcher caps near 14Mrps
		Duration: 3 * sim.Millisecond,
		Warmup:   sim.Millisecond,
		Seed:     1,
		Obs:      rec,
	})
	if res.Dropped == 0 {
		t.Fatal("no drops reported at 7x overload")
	}
	if res.Offered != res.Completed+res.Dropped {
		t.Fatalf("conservation violated: offered %d != completed %d + dropped %d",
			res.Offered, res.Completed, res.Dropped)
	}
	if res.DropRate <= 0 || res.DropRate >= 1 {
		t.Fatalf("drop rate %v at 7x overload, want strictly inside (0,1)", res.DropRate)
	}
	cap := 1e9 / float64(p.DispatchCost)
	if res.Throughput > 1.1*cap {
		t.Fatalf("throughput %v exceeds dispatcher capacity %v", res.Throughput, cap)
	}
	if res.Throughput < 0.5*cap {
		t.Fatalf("throughput %v collapsed far below dispatcher capacity %v", res.Throughput, cap)
	}
	if rec.Truncated() {
		t.Fatalf("ring too small: %d events discarded", rec.Discarded())
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Fatalf("trace invalid under overload: %v", err)
	}
}

func TestOverloadAccountingConservation(t *testing.T) {
	// Saturation sweep from underload to 3x capacity: every machine
	// must conserve requests at every offered load — each post-warmup
	// arrival resolved inside the window is either a completion or a
	// drop, so Offered == Completed + Dropped exactly. At least one
	// overloaded point must actually drop, so the law is exercised
	// past the knee and not vacuously on drop-free runs.
	w := workload.Exp1()
	sawDrops := false
	for _, load := range []float64{0.5, 1.5, 3.0} {
		cfg := RunConfig{
			Workload: w,
			Rate:     load * w.MaxLoad(4),
			Duration: 10 * sim.Millisecond,
			Warmup:   sim.Millisecond,
			Seed:     7,
		}
		for _, m := range allMachines(4) {
			res := m.Run(cfg)
			if res.Offered != res.Completed+res.Dropped {
				t.Errorf("%s at %gx: offered %d != completed %d + dropped %d",
					m.Name(), load, res.Offered, res.Completed, res.Dropped)
			}
			if res.DropRate < 0 || res.DropRate > 1 {
				t.Errorf("%s at %gx: drop rate %v outside [0,1]", m.Name(), load, res.DropRate)
			}
			// Without SLO targets every completion is good.
			if res.Goodput != res.Throughput {
				t.Errorf("%s at %gx: goodput %v != throughput %v with no SLOs",
					m.Name(), load, res.Goodput, res.Throughput)
			}
			if res.Dropped > 0 {
				sawDrops = true
			}
		}
	}
	if !sawDrops {
		t.Error("no machine dropped anything at 3x capacity: conservation never exercised past the knee")
	}
}

func TestSLOGoodputBelowThroughputUnderLoad(t *testing.T) {
	// A 20µs sojourn target on Extreme Bimodal: long jobs (~100µs of
	// service) can never meet it, so goodput must fall below
	// throughput and per-class Good must drop below Count.
	w := workload.ExtremeBimodal()
	cfg := testCfg(w, 0.6*w.MaxLoad(16))
	cfg.SLOs = map[string]sim.Time{"*": sim.Micros(20)}
	res := NewTQ(NewTQParams()).Run(cfg)
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.Goodput >= res.Throughput {
		t.Fatalf("goodput %v not below throughput %v under a 20µs SLO", res.Goodput, res.Throughput)
	}
	long := res.Class("Long")
	if long.Good >= long.Count {
		t.Fatalf("long jobs met a 20µs SLO: good %d of %d", long.Good, long.Count)
	}
	short := res.Class("Short")
	if short.Good == 0 {
		t.Fatal("no short job met a 20µs SLO at moderate load")
	}
}

func TestAdmissionBoundsRequestsNotTime(t *testing.T) {
	// The RX ring holds request descriptors: its bound must apply by
	// count, independent of any per-request processing cost.
	a := newAdmission(0, 2, 1)
	if !a.tryAdmit(0, 0, 0) || !a.tryAdmit(0, 0, 0) {
		t.Fatal("ring rejected requests below capacity")
	}
	if a.tryAdmit(0, 0, 0) {
		t.Fatal("ring admitted beyond capacity")
	}
	if a.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.dropped)
	}
	a.release(0, 0)
	if !a.tryAdmit(0, 0, 0) {
		t.Fatal("released slot not reusable")
	}

	// Pre-warmup drops shed load but stay out of the measurement
	// window, exactly like pre-warmup completions.
	b := newAdmission(10, 1, 1)
	b.tryAdmit(0, 0, 5)
	if b.tryAdmit(0, 0, 5) || b.dropped != 0 {
		t.Fatalf("pre-warmup drop counted: dropped = %d", b.dropped)
	}
	if b.tryAdmit(0, 0, 20) || b.dropped != 1 {
		t.Fatalf("post-warmup drop not counted: dropped = %d", b.dropped)
	}

	// limit <= 0 is an unbounded stage: admit everything, track nothing.
	c := newAdmission(0, 0, 1)
	for i := 0; i < 100; i++ {
		if !c.tryAdmit(0, 0, 0) {
			t.Fatal("unbounded gate rejected a request")
		}
	}
	if c.dropped != 0 || c.pending[0] != 0 {
		t.Fatalf("unbounded gate kept state: dropped=%d pending=%d", c.dropped, c.pending[0])
	}
}

func TestTQFreeDispatcherNeverBacklogs(t *testing.T) {
	// With DispatchCost == 0 the dispatcher forwards instantly, so the
	// RX ring — even a tiny one — never fills: the request-count bound
	// must not misfire on a stage with no backlog. (The old time-based
	// bound got this right only by accident, by disabling itself.)
	w := workload.Fixed("tiny", 100*sim.Nanosecond)
	p := NewTQParams()
	p.DispatchCost = 0
	p.RXQueue = 4
	p.Workers = 64
	p.Coroutines = 16
	res := NewTQ(p).Run(RunConfig{
		Workload: w,
		Rate:     50e6,
		Duration: 2 * sim.Millisecond,
		Warmup:   0,
		Seed:     1,
	})
	if res.Dropped != 0 {
		t.Fatalf("free dispatcher dropped %d requests", res.Dropped)
	}
	if res.Offered != res.Completed {
		t.Fatalf("offered %d != completed %d with no drops", res.Offered, res.Completed)
	}
}

func TestTQTraceIsValidTimeline(t *testing.T) {
	w := workload.HighBimodal()
	rec := obs.NewRing(1 << 21)
	cfg := RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: 5 * sim.Millisecond,
		Warmup:   0,
		Seed:     1,
		Obs:      rec,
	}
	res := NewTQ(NewTQParams()).Run(cfg)
	if rec.Len() == 0 || rec.Truncated() {
		t.Fatalf("trace recorded %d events, %d discarded", rec.Len(), rec.Discarded())
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Fatalf("machine produced an invalid timeline: %v", err)
	}
	// Every completion has a Finish event.
	finishes := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.Finish {
			finishes++
		}
	}
	// res.Completed counts only post-warmup in-window completions;
	// finishes covers all. With Warmup=0 they may still differ by
	// drain-phase jobs, so finish count must be at least Completed.
	if uint64(finishes) < res.Completed {
		t.Fatalf("%d finish events < %d completions", finishes, res.Completed)
	}
	// And the chrome dump is valid JSON.
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, obs.Process{Name: res.System, Events: rec.Events()}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
}

func TestResultAccessorsOnEmptyClass(t *testing.T) {
	w := workload.ExtremeBimodal()
	// At a tiny rate over a short run, long jobs may never arrive.
	cfg := RunConfig{Workload: w, Rate: 1000, Duration: sim.Millisecond, Warmup: 0, Seed: 1}
	res := NewTQ(NewTQParams()).Run(cfg)
	if got := res.P999SojournUs("nonexistent"); got != 0 {
		t.Fatalf("unknown class latency = %v, want 0", got)
	}
	_ = res.String() // must not panic with empty classes
}
