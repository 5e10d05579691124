package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// report is the output of a full run (`benchmark -o out.json`): every
// workload's end-to-end metrics pooled over the passes, the per-layer
// metrics of the traced runs, and the environment they were taken in.
type report struct {
	Schema  string   `json:"schema"`
	Note    string   `json:"note"`
	Passes  int      `json:"passes"`
	Seconds float64  `json:"seconds_per_run"`
	Quick   bool     `json:"quick,omitempty"`
	Env     envBlock `json:"env"`
	// Calibration lists sim.heap_ns_per_event as each child run started.
	Calibration []calibration    `json:"calibration"`
	Workloads   []workloadReport `json:"workloads"`
	// PerLayer is the layer suite's metrics, run once after the passes,
	// and trace_overhead_ratio as the median over the workloads.
	PerLayer map[string]Metric `json:"per_layer"`
	Ladder   []rung            `json:"ladder"`
	// Layers counts the operations the layer suite checked.
	Layers struct {
		Attempted int64    `json:"attempted"`
		Failed    int64    `json:"failed"`
		Errors    []string `json:"errors,omitempty"`
	} `json:"layers"`
	TraceFile string `json:"trace_file"`
}

// passes is how often a full run goes over the workload list: the
// fewest that give a median, to keep the whole command near three
// minutes on two shared cores.
const passes = 2

const reportNote = "Defines the benchmark; claims no gain. Baselines are to be re-measured after merge. " +
	"live-kv traffic crosses the host loopback, not a link. The simulator's fidelity to the paper is not measured here."

type calibration struct {
	Run        string  `json:"run"`
	NsPerEvent float64 `json:"sim.heap_ns_per_event"`
	// Noisy marks a run whose calibration is more than 10 % off the
	// median of all runs: the host was busy while it measured.
	Noisy bool `json:"noisy"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	// HostSeconds and HostSpeed are the times before scaling to reference
	// seconds and the scale, pooled like EndToEnd (hostspeed.go).
	HostSeconds map[string]Metric `json:"host_seconds"`
	HostSpeed   Metric            `json:"host_speed"`
	Extra       map[string]Metric `json:"extra,omitempty"`
	Counts      map[string]uint64 `json:"counts,omitempty"`
	// TraceOverheadRatio is the workload's traced repeat over its
	// untraced one, alternating, after the passes.
	TraceOverheadRatio float64 `json:"trace_overhead_ratio"`
}

// runChild runs one workload in a fresh process of this binary — heap
// left by one workload would change the next one's GC pacing — and
// reads back its detailed record.
func runChild(dir string, w workloadDef, opt runOptions, label string) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	recPath := filepath.Join(dir, label+".json")
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds), "-o", recPath}
	if opt.quick {
		args = append(args, "-quick")
	}
	out, err := exec.Command(exe, args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w\n%s", label, err, out)
	}
	data, err := os.ReadFile(recPath)
	if err != nil {
		return nil, fmt.Errorf("child %s left no record: %w", label, err)
	}
	var rec runRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("child %s record: %w", label, err)
	}
	return &rec, nil
}

// runFull makes the passes over the workload list, each workload in its
// own untraced child process, and merges the records into a report.
// Then, in this process, it runs the layer suite once and each
// workload's traced pairs: those give ratios of interleaved runs and
// per-layer figures of their own jobs, which a shared heap does not bias
// the way it biases a workload's absolute times.
func runFull(opt runOptions, out string) (*report, error) {
	dir, err := os.MkdirTemp(filepath.Dir(out), ".children-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory beside %s: %w", out, err)
	}
	defer os.RemoveAll(dir)

	rep := &report{Schema: schema, Note: reportNote, Passes: passes, Seconds: opt.seconds, Quick: opt.quick, Env: newEnv(opt.seed)}
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: w.name, Why: w.why, Correct: true,
			EndToEnd: map[string]Metric{}, HostSeconds: map[string]Metric{}, Extra: map[string]Metric{}})
	}
	absorb := func(wr *workloadReport, rec *runRecord, label string) {
		wr.Attempted += rec.Attempted
		wr.Failed += rec.Failed
		wr.Correct = wr.Correct && rec.Failed == 0 && len(rec.Errors) == 0
		for _, e := range rec.Errors {
			wr.Errors = append(wr.Errors, label+": "+e)
		}
	}
	pool := func(into map[string]Metric, from map[string]Metric) {
		for name, m := range from {
			into[name] = newMetric(name, append(into[name].Samples, m.Samples...))
		}
	}

	for pass := 1; pass <= passes; pass++ {
		for _, w := range workloads {
			label := fmt.Sprintf("pass%d-%s", pass, w.name)
			rec, err := runChild(dir, w, opt, label)
			if err != nil {
				return nil, err
			}
			wr := rep.workload(w.name)
			absorb(wr, rec, label)
			rep.Calibration = append(rep.Calibration, calibration{Run: label, NsPerEvent: rec.CalibrationNs})
			pool(wr.EndToEnd, rec.EndToEnd)
			for name, m := range rec.HostSeconds {
				wr.HostSeconds[name] = summarize(m.Unit, append(wr.HostSeconds[name].Samples, m.Samples...))
			}
			wr.HostSpeed = summarize(rec.HostSpeed.Unit, append(wr.HostSpeed.Samples, rec.HostSpeed.Samples...))
			pool(wr.Extra, rec.Extra)
			if wr.Counts == nil {
				wr.Counts = rec.Counts
			} else if !maps.Equal(wr.Counts, rec.Counts) {
				wr.Correct = false
				wr.Errors = append(wr.Errors, fmt.Sprintf("%s: exact counts %v differ from pass 1's %v", label, rec.Counts, wr.Counts))
			}
			fmt.Printf("%-22s wall_s %.6g  cpu_s %.6g  alloc_mb %.6g  setup_s %.6g  (%d repeats, host at %.2f of reference speed)\n", label,
				rec.EndToEnd["wall_s"].Value, rec.EndToEnd["cpu_s"].Value, rec.EndToEnd["alloc_mb"].Value, rec.EndToEnd["setup_s"].Value, rec.Repeats, rec.HostSpeed.Value)
		}
	}

	// End-to-end numbers are in; now the traced part.
	tr := newTracer()
	layers, err := runLayers(opt.seed, opt.quick, tr)
	if err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	rep.PerLayer, rep.Ladder = layers.metrics, layers.ladder
	rep.Layers.Attempted, rep.Layers.Failed, rep.Layers.Errors = layers.ops, layers.failed, layers.errs
	procs := []traceProcess{{Name: "layer suite", Spans: tr.spans}}
	var ratios []float64
	for _, w := range workloads {
		tr, rec := newTracer(), &runRecord{}
		ratio, err := tracedPairs(w, opt, tr, rec)
		if err != nil {
			return nil, err
		}
		wr := rep.workload(w.name)
		absorb(wr, rec, "traced pairs")
		wr.TraceOverheadRatio = ratio
		ratios = append(ratios, ratio)
		procs = append(procs, traceProcess{Name: w.name, Spans: tr.spans})
		fmt.Printf("%-22s trace_overhead_ratio %.4f  (%d spans)\n", "traced-"+w.name, ratio, len(tr.spans))
	}
	rep.PerLayer["trace_overhead_ratio"] = newMetric("trace_overhead_ratio", ratios)
	rep.TraceFile = filepath.Join(filepath.Dir(out), "trace.json")
	if err := writeTrace(rep.TraceFile, procs); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	markNoisy(rep.Calibration)
	rep.Env.LoadavgEnd = loadavg()
	return rep, nil
}

// workload finds a workload's section of the report, or nil.
func (rep *report) workload(name string) *workloadReport {
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == name {
			return &rep.Workloads[i]
		}
	}
	return nil
}

// markNoisy flags every run whose calibration is more than 10 % off
// the median of all runs.
func markNoisy(cal []calibration) {
	values := make([]float64, len(cal))
	for i, c := range cal {
		values[i] = c.NsPerEvent
	}
	mid := median(values)
	for i := range cal {
		cal[i].Noisy = math.Abs(cal[i].NsPerEvent-mid) > 0.10*mid
	}
}

func (rep *report) correct() bool {
	if rep.Layers.Failed > 0 || len(rep.Layers.Errors) > 0 {
		return false
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed > 0 {
			return false
		}
	}
	return true
}

// print lists every metric of the report by name with its unit.
func (rep *report) print() {
	fmt.Printf("\n%s\nseed %d  passes %d  %.0f s per run  GOMAXPROCS %d of %d  %s\nloadavg %s -> %s\n",
		rep.Note, rep.Env.Seed, rep.Passes, rep.Seconds, rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Env.GoVersion,
		rep.Env.LoadavgStart, rep.Env.LoadavgEnd)
	fmt.Printf("live-kv rate %d rps, frozen after %d zero-loss calibration sets\n", rep.Env.LiveRate, len(rep.Env.LiveCalibration))
	for _, w := range rep.Workloads {
		fmt.Printf("\n%s: attempted %d  failed %d  correct %v  trace_overhead_ratio %.4f\n", w.Name, w.Attempted, w.Failed, w.Correct, w.TraceOverheadRatio)
		printMetrics(endToEnd, w.EndToEnd)
		fmt.Printf("  in reference seconds; the host ran at %.3f of the reference speed (q1 %.3f  q3 %.3f  n=%d) and its own clock read:\n",
			w.HostSpeed.Median, w.HostSpeed.Q1, w.HostSpeed.Q3, w.HostSpeed.N)
		printMetrics(endToEnd, w.HostSeconds)
		printMetrics(perLayer, w.Extra)
		for _, name := range sortedKeys(w.Counts) {
			fmt.Printf("  count %-12s %d\n", name, w.Counts[name])
		}
		for _, e := range w.Errors {
			fmt.Println("  error:", e)
		}
	}
	fmt.Printf("\nper-layer (the layer suite, run once): attempted %d  failed %d\n", rep.Layers.Attempted, rep.Layers.Failed)
	printMetrics(perLayer, rep.PerLayer)
	for _, e := range rep.Layers.Errors {
		fmt.Println("  error:", e)
	}
	printLadder(rep.Ladder)
	for _, c := range rep.Calibration {
		if c.Noisy {
			fmt.Printf("noisy: %s calibrated at %.1f ns per heap event, over 10%% off the run's median\n", c.Run, c.NsPerEvent)
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schema)
	}
	return &rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verdict compares one end-to-end metric between two reports.
// "unresolved" means either side's interquartile spread is wider than
// the bound, so a difference of the bound's size could not be seen.
func verdict(a, b Metric, spec metricSpec) string {
	if a.spread() > spec.Bound || b.spread() > spec.Bound {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if spec.Better == "higher" {
		change = -change
	}
	switch {
	case change > spec.Bound:
		return "worse"
	case change < -spec.Bound:
		return "better"
	}
	return "same"
}

// diffReports prints one row per workload x end-to-end metric and per
// exact count, and reports whether B is acceptable against A: no
// metric worse, no count changed.
func diffReports(out io.Writer, a, b *report) bool {
	ok := true
	fmt.Fprintf(out, "%-11s %-9s %12s %23s %12s %23s %6s  %s\n", "workload", "metric", "A value", "A q1..q3", "B value", "B q1..q3", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-11s missing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, spec := range endToEnd {
			ma, mb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			v := verdict(ma, mb, spec)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(out, "%-11s %-9s %12.6g %11.5g..%-10.5g %12.6g %11.5g..%-10.5g %5.0f%%  %s\n",
				wa.Name, spec.Name, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, 100*spec.Bound, v)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(out, "%-11s failed operations: A %d of %d, B %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			ok = false
		}
		for _, name := range sortedKeys(wa.Counts) {
			same := wa.Counts[name] == wb.Counts[name]
			ok = ok && same
			fmt.Fprintf(out, "%-11s count %-10s A %d  B %d  %s\n", wa.Name, name, wa.Counts[name], wb.Counts[name], equalWord(same))
		}
	}
	for _, spec := range perLayer {
		if !exactLayer[spec.Name] {
			continue
		}
		ma, mb := a.PerLayer[spec.Name], b.PerLayer[spec.Name]
		same := ma.Value == mb.Value
		ok = ok && same
		fmt.Fprintf(out, "%-11s count %-22s A %.6g  B %.6g  %s\n", "per-layer", spec.Name, ma.Value, mb.Value, equalWord(same))
	}
	return ok
}

func equalWord(same bool) string {
	if same {
		return "identical"
	}
	return "MISMATCH"
}

// benchmarkJSON is the repository-root BENCHMARK.json, as far as the
// benchmark itself reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// checkReport validates a full-run report against BENCHMARK.json and
// the benchmark's own validity rules, returning every problem found.
func checkReport(rep *report, spec *benchmarkJSON) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	checkMetric := func(where string, ms metricSpec, metrics map[string]Metric) {
		m, ok := metrics[ms.Name]
		switch {
		case !ok:
			bad("%s: metric %s is missing", where, ms.Name)
		case m.Unit != ms.Unit:
			bad("%s: metric %s has unit %q, BENCHMARK.json says %q", where, ms.Name, m.Unit, ms.Unit)
		case m.N < 1:
			bad("%s: metric %s states no sample count", where, ms.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad("%s: metric %s is %v", where, ms.Name, m.Value)
		}
	}
	for _, w := range spec.Workloads {
		wr := rep.workload(w.Name)
		if wr == nil {
			bad("workload %s is missing", w.Name)
			continue
		}
		if wr.Attempted < 1 {
			bad("%s: attempted %d, want at least 1", w.Name, wr.Attempted)
		}
		if wr.Failed != 0 || !wr.Correct {
			bad("%s: %d of %d operations failed (correct=%v)", w.Name, wr.Failed, wr.Attempted, wr.Correct)
		}
		for _, ms := range spec.EndToEnd {
			checkMetric(w.Name, ms, wr.EndToEnd)
			if m, ok := wr.EndToEnd[ms.Name]; ok && m.Value == 0 {
				bad("%s: end-to-end metric %s is 0", w.Name, ms.Name)
			}
		}
		if wr.TraceOverheadRatio <= 0 {
			bad("%s: no trace_overhead_ratio", w.Name)
		}
		extra := map[string]float64{}
		for name, m := range wr.Extra {
			extra[name] = m.Value
		}
		if late := lateGenerator(extra); late != "" {
			bad("%s: %s: the run is invalid", w.Name, late)
		}
	}
	for _, ms := range spec.PerLayer {
		checkMetric("per-layer", ms, rep.PerLayer)
	}
	if m := rep.PerLayer["obs.ring_discarded"]; m.Value != 0 || m.Q3 != 0 {
		bad("obs.ring_discarded is %v: the traced ring overflowed", m.Q3)
	}
	for _, name := range zeroAllocLayer {
		if m := rep.PerLayer[name]; int64(m.Q3) != 0 {
			bad("%s is %v, want 0 allocations per operation in steady state", name, m.Q3)
		}
	}
	if rep.Layers.Failed != 0 || len(rep.Layers.Errors) != 0 {
		bad("layer suite: %d of %d operations failed: %v", rep.Layers.Failed, rep.Layers.Attempted, rep.Layers.Errors)
	}
	if len(rep.Ladder) == 0 {
		bad("no layer ladder")
	}
	if rep.Env.NProc == 0 || rep.Env.GOMAXPROCS == 0 || rep.Env.GoVersion == "" || rep.Env.LoadavgStart == "" || rep.Env.LoadavgEnd == "" {
		bad("environment block is incomplete: %+v", rep.Env)
	}
	if len(rep.Env.LiveCalibration) < 5 {
		bad("environment block lists %d live-rate calibration sets, want 5", len(rep.Env.LiveCalibration))
	}
	if len(rep.Calibration) == 0 {
		bad("no per-run sim.heap_ns_per_event calibration")
	}
	remarked := append([]calibration(nil), rep.Calibration...)
	markNoisy(remarked)
	for i, c := range remarked {
		if c.Noisy && !rep.Calibration[i].Noisy {
			bad("run %s calibrated %.1f ns per heap event, over 10%% off the run's median, and is not flagged noisy", c.Run, c.NsPerEvent)
		}
	}
	return problems
}
