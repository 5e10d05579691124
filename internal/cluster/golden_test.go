package cluster

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The golden seed-equivalence fixtures pin every machine model's exact
// per-seed numbers. They were recorded from the pre-kernel machines
// (each carrying its own arrival loop and Run skeleton) immediately
// before the port onto the shared machineRun substrate, so any drift —
// one extra RNG draw, one reordered engine event, one changed float —
// fails this test. Regenerate only for a deliberate semantic change:
//
//	go test ./internal/cluster -run TestGoldenSeedEquivalence -update
//
// The two percentile columns were recorded by the exact estimator, one
// float64 kept per completion, and were deliberately not re-recorded
// when Results moved to stats.Hist: they are the independent reference
// every row's histogram read-out is held to (compareGolden). A
// regenerated row stores the histogram's read-out there instead.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

const goldenPath = "testdata/golden_results.json"

// goldenClass is the per-class slice of a golden summary. Floats are
// compared exactly: encoding/json round-trips float64 losslessly.
type goldenClass struct {
	Count        uint64  `json:"count"`
	Good         uint64  `json:"good"`
	SojournMean  float64 `json:"sojournMean"`
	SojournP999  float64 `json:"sojournP999"`
	SlowdownMean float64 `json:"slowdownMean"`
	SlowdownP999 float64 `json:"slowdownP999"`
}

// goldenSummary captures everything a Result derives from the
// simulation trajectory, including Events — the engine's executed-event
// count, which changes if the port adds, drops, or reorders any
// scheduled callback.
type goldenSummary struct {
	System     string                 `json:"system"`
	Completed  uint64                 `json:"completed"`
	Offered    uint64                 `json:"offered"`
	Dropped    uint64                 `json:"dropped"`
	Events     uint64                 `json:"events"`
	Throughput float64                `json:"throughput"`
	Goodput    float64                `json:"goodput"`
	DropRate   float64                `json:"dropRate"`
	RTT        sim.Time               `json:"rtt"`
	PerClass   map[string]goldenClass `json:"perClass"`
}

func summarize(res *Result) goldenSummary {
	s := goldenSummary{
		System:     res.System,
		Completed:  res.Completed,
		Offered:    res.Offered,
		Dropped:    res.Dropped,
		Events:     res.Events,
		Throughput: res.Throughput,
		Goodput:    res.Goodput,
		DropRate:   res.DropRate,
		RTT:        res.RTT,
		PerClass:   map[string]goldenClass{},
	}
	for i := range res.PerClass {
		c := &res.PerClass[i]
		s.PerClass[c.Name] = goldenClass{
			Count:        c.Count,
			Good:         c.Good,
			SojournMean:  c.Sojourn.Mean(),
			SojournP999:  c.Sojourn.P999(),
			SlowdownMean: c.Slowdown.Mean(),
			SlowdownP999: c.Slowdown.P999(),
		}
	}
	return s
}

// goldenMachines enumerates every machine model and variant under fixed
// parameters (8 workers where the constructor allows it, so fixtures
// stay fast). Keys are fixture identifiers, stable across refactors
// even if display names change. A row's slos, when set, are the
// RunConfig.SLOs it runs under.
func goldenMachines() []struct {
	key  string
	m    Machine
	slos map[string]sim.Time
} {
	p8 := func() TQParams {
		p := NewTQParams()
		p.Workers = 8
		return p
	}
	sj8 := func(q sim.Time) ShinjukuParams {
		p := NewShinjukuParams(q)
		p.Workers = 8
		return p
	}
	cal8 := func(mode CaladanMode) CaladanParams {
		p := NewCaladanParams(mode)
		p.Workers = 8
		return p
	}
	df8 := func() DFCFSParams {
		p := NewDFCFSParams()
		p.Workers = 8
		return p
	}
	return []struct {
		key  string
		m    Machine
		slos map[string]sim.Time
	}{
		{key: "tq", m: NewTQ(p8())},
		{key: "tq-las", m: NewTQLAS(p8())},
		{key: "tq-ic", m: NewTQIC(p8())},
		{key: "tq-slow-yield", m: NewTQSlowYield(p8())},
		{key: "tq-timing", m: NewTQTiming(p8())},
		{key: "tq-rand", m: NewTQRand(p8())},
		{key: "tq-power-two", m: NewTQPowerTwo(p8())},
		{key: "tq-fcfs", m: NewTQFCFS(p8())},
		{key: "tq-slo", m: NewTQ(p8()), slos: map[string]sim.Time{"*": sim.Micros(20)}},
		{key: "shinjuku", m: NewShinjuku(sj8(sim.Micros(5)))},
		{key: "concord", m: NewConcord(sim.Micros(5))},
		{key: "libpreemptible", m: NewLibPreemptible(p8())},
		{key: "caladan-iokernel", m: NewCaladan(cal8(IOKernel))},
		{key: "caladan-directpath", m: NewCaladan(cal8(Directpath))},
		{key: "caladan-best", m: NewBestCaladan("Short")},
		{key: "ct-ps", m: NewCentralizedPS(8, sim.Micros(2), 0)},
		{key: "ct-srpt", m: &CentralizedPS{Workers: 8, Quantum: sim.Micros(2), Discipline: "srpt"}},
		{key: "d-fcfs", m: NewDFCFS(df8())},
		{key: "oracle-srpt", m: NewOracle(8)},
		{key: "tq-srpt", m: func() Machine {
			p := p8()
			p.Discipline = "srpt"
			return NewTQ(p)
		}()},
		{key: "tls-jsq-msq", m: NewIdealTLS(8, sim.Micros(1), BalanceJSQMSQ)},
		{key: "tls-jsq-rand", m: NewIdealTLS(8, sim.Micros(1), BalanceJSQRandom)},
	}
}

// goldenConfigs returns the two fixture configurations: a mid-load
// bimodal run exercising every scheduling path, and a dispatcher-
// saturating overload run exercising RX-ring drop accounting.
func goldenConfigs() map[string]RunConfig {
	hb := workload.HighBimodal()
	return map[string]RunConfig{
		"midload": {
			Workload: hb,
			Rate:     0.7 * hb.MaxLoad(8),
			Duration: 30 * sim.Millisecond,
			Warmup:   3 * sim.Millisecond,
			Seed:     0xC0FFEE,
		},
		"overload": {
			Workload: workload.Fixed("tiny", 100*sim.Nanosecond),
			Rate:     30e6,
			Duration: 2 * sim.Millisecond,
			Warmup:   200 * sim.Microsecond,
			Seed:     0xC0FFEE,
		},
	}
}

// TestGoldenSeedEquivalence asserts that every machine still produces
// bit-identical Results for the fixture seeds — the proof that the
// kernel port changed no number anywhere.
func TestGoldenSeedEquivalence(t *testing.T) {
	got := map[string]map[string]goldenSummary{}
	for cfgName, cfg := range goldenConfigs() {
		got[cfgName] = map[string]goldenSummary{}
		for _, gm := range goldenMachines() {
			cfg.SLOs = gm.slos
			got[cfgName][gm.key] = summarize(gm.m.Run(cfg))
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update to record them): %v", err)
	}
	want := map[string]map[string]goldenSummary{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}

	for cfgName := range want {
		for key, w := range want[cfgName] {
			g, ok := got[cfgName][key]
			if !ok {
				t.Errorf("%s/%s: machine missing from goldenMachines", cfgName, key)
				continue
			}
			compareGolden(t, cfgName+"/"+key, w, g)
		}
		// New machines must be goldenized, not silently skipped.
		var missing []string
		for key := range got[cfgName] {
			if _, ok := want[cfgName][key]; !ok {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		for _, key := range missing {
			t.Errorf("%s/%s: no fixture recorded; rerun with -update", cfgName, key)
		}
	}
}

// withinHistBound reports whether a histogram read-out is within
// stats.HistRelErr of the exact order statistic the fixture recorded.
func withinHistBound(exact, got float64) bool {
	return math.Abs(got-exact) <= stats.HistRelErr*exact
}

func compareGolden(t *testing.T, id string, want, got goldenSummary) {
	t.Helper()
	if want.System != got.System {
		t.Errorf("%s: system %q, want %q", id, got.System, want.System)
	}
	if want.Completed != got.Completed || want.Offered != got.Offered || want.Dropped != got.Dropped {
		t.Errorf("%s: completed/offered/dropped %d/%d/%d, want %d/%d/%d",
			id, got.Completed, got.Offered, got.Dropped, want.Completed, want.Offered, want.Dropped)
	}
	if want.Events != got.Events {
		t.Errorf("%s: engine executed %d events, want %d (a scheduled callback was added, dropped, or reordered)",
			id, got.Events, want.Events)
	}
	if want.Throughput != got.Throughput || want.Goodput != got.Goodput || want.DropRate != got.DropRate {
		t.Errorf("%s: throughput/goodput/droprate %v/%v/%v, want %v/%v/%v",
			id, got.Throughput, got.Goodput, got.DropRate, want.Throughput, want.Goodput, want.DropRate)
	}
	if want.RTT != got.RTT {
		t.Errorf("%s: rtt %v, want %v", id, got.RTT, want.RTT)
	}
	for name, wc := range want.PerClass {
		gc, ok := got.PerClass[name]
		if !ok {
			t.Errorf("%s: class %s missing", id, name)
			continue
		}
		// The fixtures hold what the exact estimator (stats.Sample, every
		// completion kept) recorded. Counts and means must still match to
		// the bit; the two percentiles are now read from a stats.Hist and
		// must lie within its proven bound of the exact order statistic.
		if !withinHistBound(wc.SojournP999, gc.SojournP999) || !withinHistBound(wc.SlowdownP999, gc.SlowdownP999) {
			t.Errorf("%s: class %s p99.9 sojourn/slowdown %v/%v, exact %v/%v: beyond %.3f%%",
				id, name, gc.SojournP999, gc.SlowdownP999, wc.SojournP999, wc.SlowdownP999, 100*stats.HistRelErr)
		}
		gc.SojournP999, gc.SlowdownP999 = wc.SojournP999, wc.SlowdownP999
		if wc != gc {
			t.Errorf("%s: class %s = %+v, want %+v", id, name, gc, wc)
		}
	}
	if len(got.PerClass) != len(want.PerClass) {
		t.Errorf("%s: %d classes, want %d", id, len(got.PerClass), len(want.PerClass))
	}
}
