package main

import (
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

// These tests are the benchmark's smoke: every workload at quick size,
// one repeat, in-process. They assert names, exact counts and
// conservation — never a timing.

// quickOptions runs minRepeats repeats: the budget is spent before the
// first one ends.
var quickOptions = runOptions{seed: pinnedSeed, seconds: 0.001, quick: true}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	for _, list := range []struct {
		name      string
		json, own []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.own) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", list.name, len(list.json), len(list.own))
			continue
		}
		for i := range list.own {
			if list.json[i] != list.own[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", list.name, i, list.json[i], list.own[i])
			}
		}
	}

	// The driver's limits on the file itself.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	largest := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if setup, ok := specByName(spec.EndToEnd, "setup_s"); !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound; got %+v", setup)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", spec.RunSeconds, spec.Paths)
	}
}

func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "live-kv" && testing.Short() {
				t.Skip("live-kv opens loopback sockets")
			}
			rec, err := runWorkload(w, quickOptions)
			if err != nil {
				t.Fatal(err)
			}
			// rec.Correct covers conservation, repeat-to-repeat identity
			// and the pinned digests of testdata/digests.json.
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			for _, name := range []string{"setup_s", "wall_s", "cpu_s"} {
				if m := rec.HostSeconds[name]; m.N != rec.EndToEnd[name].N || m.N == 0 {
					t.Errorf("%s: %d samples in host seconds, %d in reference seconds", name, m.N, rec.EndToEnd[name].N)
				}
			}
			if w.name != "live-kv" && rec.Counts["offered"] != rec.Counts["completed"]+rec.Counts["dropped"] {
				t.Errorf("counts do not conserve: %v", rec.Counts)
			}
			line, err := contractLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			checkContractLine(t, line, endToEnd)
		})
	}
}

// checkContractLine asserts the driver's result object: exactly the
// four keys, and exactly the listed metrics, each a finite non-zero
// number with its unit.
func checkContractLine(t *testing.T, line []byte, want []metricSpec) {
	t.Helper()
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("result line is not one JSON object: %v\n%s", err, line)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(metrics), len(want))
	}
	for _, spec := range want {
		m, ok := metrics[spec.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("result line lacks metric %s", spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("metric %s has unit %q, want %q", spec.Name, m.Unit, spec.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s is %v", spec.Name, *m.Value)
		}
	}
}

func TestQuickTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer suite includes live-kv sets")
	}
	w, _ := workloadByName("live-kv")
	opt := quickOptions
	opt.trace = true
	rec, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Fatalf("correct=%v failed=%d errors=%v", rec.Correct, rec.Failed, rec.Errors)
	}
	line, err := contractLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	checkContractLine(t, line, perLayer)

	layer := func(name string) float64 { return rec.PerLayer[name].Value }
	if layer("obs.ring_discarded") != 0 {
		t.Errorf("obs ring discarded %v events", layer("obs.ring_discarded"))
	}
	pins, err := pinned("tq-steady", pinnedSeed, true)
	if err != nil || len(pins) != 1 {
		t.Fatalf("pinned tq-steady digest: %v, %d runs", err, len(pins))
	}
	if got := layer("sim.events"); got != float64(pins[0].Events) {
		t.Errorf("sim.events %v, pinned %d", got, pins[0].Events)
	}
	if got := layer("cluster.offered"); got != layer("cluster.completed")+layer("cluster.dropped") {
		t.Errorf("the sweep's totals do not conserve: offered %v", got)
	}
	if layer("loadgen.received") != layer("loadgen.sent") {
		t.Errorf("live set lost requests: sent %v received %v", layer("loadgen.sent"), layer("loadgen.received"))
	}
	for _, name := range zeroAllocLayer {
		if int64(layer(name)) != 0 {
			t.Errorf("%s is %v, want 0", name, layer(name))
		}
	}

	// The cost stack closes by construction: sink + policy residual = tq.
	rungs := map[string]float64{}
	for _, r := range rec.Ladder {
		rungs[r.Name] = r.NsPerRequest
	}
	if sum := layer("cluster.sink_ns_per_req") + layer("cluster.tq_policy_ns_per_req"); math.Abs(sum-rungs["tq run"]) > 1e-6*rungs["tq run"] {
		t.Errorf("sink %v + residual %v != tq rung %v", layer("cluster.sink_ns_per_req"), layer("cluster.tq_policy_ns_per_req"), rungs["tq run"])
	}
	if len(rec.Ladder) != 6 {
		t.Errorf("ladder has %d rungs, want 6", len(rec.Ladder))
	}

	checkSpans(t, rec.Spans, "request", "due to send", "send", "server read", "decode", "queue wait", "task body", "kvstore", "encode+write", "client receive", "layer ladder")
}

// checkSpans asserts a trace is well-formed — every span ends after it
// starts, names an existing parent and shares its request — and holds
// the named spans.
func checkSpans(t *testing.T, spans []span, want ...string) {
	t.Helper()
	byID := map[uint64]span{}
	names := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && !ok {
			t.Errorf("span %s names a missing parent %d", s.Name, s.Parent)
		} else if ok && p.Req != s.Req {
			t.Errorf("span %s and its parent %s belong to different requests", s.Name, p.Name)
		}
	}
}

func TestSimSpans(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     []string
	}{
		{"tq-traced", []string{"repeat", "build", "Machine.Run", "read-out", "obs.Summarize", "obs.WriteChrome", "format"}},
		{"fig7-sweep", []string{"repeat", "experiments.Fig7", "point ExtremeBimodal/TQ/0", "read-out", "format"}},
	} {
		w, _ := workloadByName(c.workload)
		j, err := w.setup(pinnedSeed, true)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		_, err = j.run(tr)
		j.close()
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, tr.spans, c.want...)
		var buf strings.Builder
		if err := writeChromeSpans(&buf, []traceProcess{{Name: c.workload, Spans: tr.spans}}); err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil || len(parsed.TraceEvents) != len(tr.spans)+1 {
			t.Errorf("%s: Chrome trace has %d events for %d spans (err %v)", c.workload, len(parsed.TraceEvents), len(tr.spans), err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, med, q3)
	}
	// statistics.quantiles([4, 5], n=4) == [3.75, 4.5, 5.25]: with two
	// samples the exclusive method extrapolates beyond both.
	q1, med, q3 = quartiles([]float64{5, 4})
	if q1 != 3.75 || med != 4.5 || q3 != 5.25 {
		t.Errorf("quartiles of 4,5 = %v %v %v, want 3.75 4.5 5.25", q1, med, q3)
	}
}

// The reference kernel must be a fixed computation that leaves the Go
// heap alone: it runs between the timed steps of every untraced run.
func TestHostClock(t *testing.T) {
	c, err := newHostClock(true)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := c.kernel.run(c.events), c.kernel.run(c.events); a != b {
		t.Errorf("two kernel runs computed %#x and %#x", a, b)
	}
	if allocs := testing.AllocsPerRun(3, func() { c.kernel.run(c.events) }); allocs != 0 {
		t.Errorf("a kernel run makes %v allocations, want 0", allocs)
	}
	c.start()
	wall, cpu := c.lap()
	if !(wall > 0 && cpu > 0) || math.IsInf(wall, 0) || math.IsInf(cpu, 0) || len(c.speeds) != 2 {
		t.Errorf("lap scales wall by %v and cpu by %v after %d kernel runs", wall, cpu, len(c.speeds))
	}
}

func TestVerdict(t *testing.T) {
	spec := metricSpec{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10}
	tight := func(v float64) Metric { return Metric{Value: v, Q1: v * 0.99, Median: v, Q3: v * 1.01, N: 9} }
	for _, c := range []struct {
		a, b Metric
		want string
	}{
		{tight(1), tight(1.05), "same"},
		{tight(1), tight(1.2), "worse"},
		{tight(1), tight(0.8), "better"},
		{tight(1), Metric{Value: 1.3, Q1: 1.0, Median: 1.3, Q3: 1.6, N: 9}, "unresolved"},
	} {
		if got := verdict(c.a, c.b, spec); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// syntheticReport is a minimal report that passes checkReport.
func syntheticReport() *report {
	rep := &report{Schema: schema, PerLayer: map[string]Metric{}, Ladder: []rung{{Name: "tq run"}},
		Env:         envBlock{NProc: 2, GOMAXPROCS: 2, GoVersion: "go", LoadavgStart: "0", LoadavgEnd: "0", LiveCalibration: make([]liveCalibrationRun, 5)},
		Calibration: []calibration{{Run: "pass1", NsPerEvent: 100}}}
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Correct: true, Attempted: 3, TraceOverheadRatio: 1, EndToEnd: map[string]Metric{},
			Counts: map[string]uint64{"events": 10}}
		for _, s := range endToEnd {
			wr.EndToEnd[s.Name] = Metric{Unit: s.Unit, Value: 1, Q1: 0.995, Median: 1, Q3: 1.005, N: 3}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	for _, s := range perLayer {
		v := 5.0
		if s.Name == "obs.ring_discarded" || strings.Contains(s.Name, "allocs_per") {
			v = 0
		}
		rep.PerLayer[s.Name] = Metric{Unit: s.Unit, Value: v, Q1: v, Median: v, Q3: v, N: 5, Exact: exactLayer[s.Name]}
	}
	return rep
}

func TestCheckAndDiff(t *testing.T) {
	spec, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkReport(syntheticReport(), spec); len(problems) != 0 {
		t.Fatalf("a complete report fails -check: %v", problems)
	}
	if !diffReports(io.Discard, syntheticReport(), syntheticReport()) {
		t.Error("a report differs from itself")
	}

	broken := syntheticReport()
	delete(broken.Workloads[0].EndToEnd, "wall_s")
	broken.PerLayer["obs.ring_discarded"] = Metric{Unit: "count", Value: 3, Q1: 3, Median: 3, Q3: 3, N: 1}
	broken.Workloads[1].Failed = 1
	if problems := checkReport(broken, spec); len(problems) != 3 {
		t.Errorf("-check found %d problems, want 3: %v", len(problems), problems)
	}

	slower := syntheticReport()
	slower.Workloads[2].EndToEnd["wall_s"] = Metric{Unit: "s", Value: 1.5, Q1: 1.49, Median: 1.5, Q3: 1.51, N: 3}
	if diffReports(io.Discard, syntheticReport(), slower) {
		t.Error("-diff accepts a 50% slower wall_s")
	}
	recount := syntheticReport()
	recount.Workloads[3].Counts["events"] = 11
	if diffReports(io.Discard, syntheticReport(), recount) {
		t.Error("-diff accepts a changed exact count")
	}
}
