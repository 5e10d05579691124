package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// schema tags every file the benchmark writes.
const schema = "tqbenchmark/v1"

// setupRounds is how many timed set-ups a run makes; setup_s is the
// median, so one slow start does not decide it.
const setupRounds = 5

// envBlock records the host and the settings a number was taken under.
type envBlock struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	LoadavgStart string `json:"loadavg_start"`
	LoadavgEnd   string `json:"loadavg_end"`
	Seed         uint64 `json:"seed"`
	// LiveRate is live-kv's frozen offered load and LiveCalibration the
	// five zero-loss sets that justified it.
	LiveRate        int                  `json:"live_rate_rps"`
	LiveCalibration []liveCalibrationRun `json:"live_rate_calibration"`
}

// pinProcs pins GOMAXPROCS to min(nproc, 2): the benchmark was sized on
// two shared cores, and before Go 1.25 GOMAXPROCS ignores a container's
// CPU quota, so a wide host would otherwise change what the sweep and
// the live runtime measure.
func pinProcs() {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(data))
}

func newEnv(seed uint64) envBlock {
	return envBlock{
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		LoadavgStart:    loadavg(),
		Seed:            seed,
		LiveRate:        liveRate,
		LiveCalibration: liveCalibration,
	}
}

// cpuSeconds is the process's user+system CPU time so far. Unlike wall
// time it includes the GC workers running on the second core.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// usage is what a stretch of work cost, measured from outside: host
// wall time, process CPU, and the heap allocations it made.
type usage struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64
}

func (u usage) allocMB() float64 { return float64(u.bytes) / 1e6 }

// observe runs fn and reports what it cost.
func observe(fn func()) usage {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuSeconds(), time.Now()
	fn()
	u := usage{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&after)
	u.mallocs, u.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return u
}

// column extracts one figure from every repeat.
func column(repeats []*outcome, f func(*outcome) float64) []float64 {
	out := make([]float64, len(repeats))
	for i, r := range repeats {
		out[i] = f(r)
	}
	return out
}

func wallOf(o *outcome) float64 { return o.cost.wall }

// runRecord is the detailed result of one run of one workload — what
// `benchmark -workload W` measured. The contract's result line is cut
// from it; the full-run driver merges several into a report.
type runRecord struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Quick     bool              `json:"quick,omitempty"`
	Env       envBlock          `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Repeats   int               `json:"repeats"`
	EndToEnd  map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
	// Counts are the workload's exact simulated totals over one repeat.
	Counts map[string]uint64 `json:"counts,omitempty"`
	// Extra holds the workload's own read-outs (live-kv's latencies).
	Extra map[string]Metric `json:"extra,omitempty"`
	// CalibrationNs is sim.heap_ns_per_event taken as this run started:
	// frozen code, so a run whose value strays measured a busy host.
	CalibrationNs float64 `json:"calibration_heap_ns_per_event"`
	// HostSeconds are the gated times as this host's clock read them,
	// before scaling to reference seconds, and HostSpeed the scale: the
	// reference kernel's nominal time over its time here, at every run of
	// it (hostspeed.go).
	HostSeconds map[string]Metric `json:"host_seconds,omitempty"`
	HostSpeed   Metric            `json:"host_speed"`
	Ladder      []rung            `json:"ladder,omitempty"`
	Spans       []span            `json:"spans,omitempty"`
}

func (r *runRecord) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runOptions are the settings of one run.
type runOptions struct {
	seed    uint64
	seconds float64
	quick   bool
	trace   bool
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(w workloadDef, opt runOptions) (*runRecord, error) {
	rec := &runRecord{Schema: schema, Workload: w.name, Seconds: opt.seconds, Traced: opt.trace, Quick: opt.quick, Env: newEnv(opt.seed)}
	churn := 1_000_000
	if opt.quick {
		churn = 100_000
	}
	rec.CalibrationNs = calibrationNsPerEvent(churn)
	var err error
	if opt.trace {
		err = runTraced(w, opt, rec)
	} else {
		err = runTimed(w, opt, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Env.LoadavgEnd = loadavg()
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	return rec, nil
}

// minRepeats is the fewest timed repeats a run reports from, however
// short its budget: a median of fewer says little.
const minRepeats = 3

// runTimed is the untraced run end-to-end numbers come from: set the
// workload up setupRounds times, each from a collected heap handed back
// to the system, so that no round inherits garbage or mapped memory from
// the one before (tq-traced's set-ups ranged 0.32-1.44 s without this);
// run the job once untimed, which grows the heap to working size (a
// first repeat took 2.5-3.2 s against 1.8 s on tq-traced) and whose
// outputs are checked like the others; then repeat the job until the
// time budget is spent. The reference kernel runs between the steps,
// and every set-up and repeat is reported in reference seconds
// (hostspeed.go) beside the seconds this host's clock read.
func runTimed(w workloadDef, opt runOptions, rec *runRecord) error {
	clock, err := newHostClock(opt.quick)
	if err != nil {
		return err
	}
	var (
		j                 job
		setups, rawSetups []float64
	)
	clock.start()
	for round := 0; round < setupRounds; round++ {
		if j != nil {
			j.close()
		}
		debug.FreeOSMemory()
		start := time.Now()
		if j, err = w.setup(opt.seed, opt.quick); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		raw := time.Since(start).Seconds()
		scale, _ := clock.lap()
		setups, rawSetups = append(setups, raw*scale), append(rawSetups, raw)
	}
	defer j.close()
	warm, err := j.run(nil)
	if err != nil {
		return fmt.Errorf("%s warm-up repeat: %w", w.name, err)
	}

	var (
		repeats   []*outcome
		wall, cpu []float64
	)
	budget := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for clock.start(); ; {
		out, err := j.run(nil)
		if err != nil {
			return fmt.Errorf("%s repeat %d: %w", w.name, len(repeats)+1, err)
		}
		wallScale, cpuScale := clock.lap()
		repeats = append(repeats, out)
		wall, cpu = append(wall, out.cost.wall*wallScale), append(cpu, out.cost.cpu*cpuScale)
		// Stop when another repeat would overrun the budget.
		elapsed := time.Since(start)
		if len(repeats) >= minRepeats && elapsed+elapsed/time.Duration(len(repeats)) > budget {
			break
		}
	}
	rec.Repeats = len(repeats)
	if err := check(w, opt, append([]*outcome{warm}, repeats...), rec); err != nil {
		return err
	}

	rec.EndToEnd = map[string]Metric{
		"setup_s":  newMetric("setup_s", setups),
		"wall_s":   newMetric("wall_s", wall),
		"cpu_s":    newMetric("cpu_s", cpu),
		"alloc_mb": newMetric("alloc_mb", column(repeats, func(o *outcome) float64 { return o.cost.allocMB() })),
	}
	rec.HostSeconds = map[string]Metric{
		"setup_s": summarize("s", rawSetups),
		"wall_s":  summarize("s", column(repeats, wallOf)),
		"cpu_s":   summarize("s", column(repeats, func(o *outcome) float64 { return o.cost.cpu })),
	}
	rec.HostSpeed = summarize("ratio", clock.speeds)
	// The workload's own read-outs, from whichever repeats made them
	// (live-kv's open-loop set plays in the untimed repeat only).
	rec.Extra = map[string]Metric{}
	for _, spec := range perLayer {
		var samples []float64
		for _, out := range append([]*outcome{warm}, repeats...) {
			if v, ok := out.extra[spec.Name]; ok {
				samples = append(samples, v)
			}
		}
		if len(samples) > 0 {
			rec.Extra[spec.Name] = newMetric(spec.Name, samples)
		}
	}
	return finite(endToEnd, rec.EndToEnd)
}

// check verifies the repeats' outputs: conservation in every simulated
// run, bit-identical statistics from repeat to repeat, the pinned
// digests at the pinned seed, and completeness for live-kv.
func check(w workloadDef, opt runOptions, repeats []*outcome, rec *runRecord) error {
	pins, err := pinned(w.name, opt.seed, opt.quick)
	if err != nil {
		return err
	}
	first := repeats[0]
	for i, out := range repeats {
		rec.Attempted += out.ops
		failed := out.failed
		for _, d := range out.digests {
			if !d.conserved() {
				failed++
				rec.fail("repeat %d: %s: offered %d != completed %d + dropped %d", i+1, d.Key, d.Offered, d.Completed, d.Dropped)
			}
		}
		if out.failed > 0 {
			rec.fail("repeat %d: %d of %d operations failed", i+1, out.failed, out.ops)
		}
		if err := matchAll(out.digests, first.digests, true); err != nil {
			failed = max(failed, 1)
			rec.fail("repeat %d differs from repeat 1 on the same inputs: %v", i+1, err)
		}
		if pins != nil {
			if err := matchAll(out.digests, pins, false); err != nil {
				failed = max(failed, 1)
				rec.fail("repeat %d differs from testdata/digests.json: %v", i+1, err)
			}
		}
		rec.Failed += failed
	}
	if late := lateGenerator(first.extra); late != "" {
		// Reported, not failed: the requests were all answered, but the
		// latencies measured the generator as much as the server.
		fmt.Println("warning:", late)
	}
	if len(first.digests) > 0 {
		rec.Counts = map[string]uint64{"runs": uint64(len(first.digests))}
		for _, d := range first.digests {
			rec.Counts["events"] += d.Events
			rec.Counts["offered"] += d.Offered
			rec.Counts["completed"] += d.Completed
			rec.Counts["dropped"] += d.Dropped
		}
	}
	return nil
}

// runTraced is the traced run: the layer suite for the per-layer
// metrics, then the named workload's traced pairs.
func runTraced(w workloadDef, opt runOptions, rec *runRecord) error {
	tr := newTracer()
	layers, err := runLayers(opt.seed, opt.quick, tr)
	if err != nil {
		return fmt.Errorf("layer suite: %w", err)
	}
	rec.PerLayer, rec.Ladder = layers.metrics, layers.ladder
	rec.Attempted, rec.Failed = layers.ops, layers.failed
	rec.Errors = append(rec.Errors, layers.errs...)
	ratio, err := tracedPairs(w, opt, tr, rec)
	if err != nil {
		return err
	}
	rec.PerLayer["trace_overhead_ratio"] = newMetric("trace_overhead_ratio", []float64{ratio})
	rec.Spans = tr.spans
	return finite(perLayer, rec.PerLayer)
}

// tracedPairs runs the workload with the benchmark's spans on and off,
// alternating, checks the outputs into rec, and returns the traced wall
// time over the untraced: trace_overhead_ratio.
func tracedPairs(w workloadDef, opt runOptions, tr *tracer, rec *runRecord) (float64, error) {
	j, err := w.setup(opt.seed, opt.quick)
	if err != nil {
		return 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer j.close()
	var plain, traced []*outcome
	for pair, start := 0, time.Now(); pair < 2; pair++ {
		p, err := j.run(nil)
		if err != nil {
			return 0, fmt.Errorf("%s untraced repeat: %w", w.name, err)
		}
		t, err := j.run(tr)
		if err != nil {
			return 0, fmt.Errorf("%s traced repeat: %w", w.name, err)
		}
		plain, traced = append(plain, p), append(traced, t)
		if time.Since(start) > 4*time.Second { // long repeats: one pair is all the budget holds
			break
		}
	}
	rec.Repeats = len(plain) + len(traced)
	if err := check(w, opt, append(plain, traced...), rec); err != nil {
		return 0, err
	}
	return median(column(traced, wallOf)) / median(column(plain, wallOf)), nil
}

// contractLine is the one-object result the driver reads from the last
// line of standard output.
func contractLine(rec *runRecord) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, from := endToEnd, rec.EndToEnd
	if rec.Traced {
		specs, from = perLayer, rec.PerLayer
	}
	metrics := map[string]value{}
	for _, spec := range specs {
		m, ok := from[spec.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no %s", spec.Name)
		}
		metrics[spec.Name] = value{m.Value, spec.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
}

// printRecord lists a run's metrics by name with unit, quartiles and
// sample count.
func printRecord(rec *runRecord) {
	fmt.Printf("workload %s  seed %d  traced %v  repeats %d  GOMAXPROCS %d of %d  %s\n",
		rec.Workload, rec.Env.Seed, rec.Traced, rec.Repeats, rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.GoVersion)
	fmt.Printf("loadavg %s -> %s  calibration sim.heap_ns_per_event %.1f\n", rec.Env.LoadavgStart, rec.Env.LoadavgEnd, rec.CalibrationNs)
	if rec.Workload == "live-kv" || rec.Traced {
		fmt.Printf("live-kv: %d rps frozen, open loop, host loopback (no link crossed)\n", liveRate)
	}
	printMetrics(endToEnd, rec.EndToEnd)
	if !rec.Traced {
		fmt.Printf("times above are in reference seconds; this host ran at %.3f of the reference host's speed (q1 %.3f  q3 %.3f  n=%d) and its own clock read:\n",
			rec.HostSpeed.Median, rec.HostSpeed.Q1, rec.HostSpeed.Q3, rec.HostSpeed.N)
		printMetrics(endToEnd, rec.HostSeconds)
	}
	printMetrics(perLayer, rec.Extra)
	printMetrics(perLayer, rec.PerLayer)
	for _, name := range sortedKeys(rec.Counts) {
		fmt.Printf("  count %-12s %d\n", name, rec.Counts[name])
	}
	printLadder(rec.Ladder)
	fmt.Printf("attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Failed == 0 && len(rec.Errors) == 0)
	for _, e := range rec.Errors {
		fmt.Println("error:", e)
	}
}

func printMetrics(order []metricSpec, metrics map[string]Metric) {
	for _, spec := range order {
		m, ok := metrics[spec.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %14.6g %-5s  q1 %.6g  median %.6g  q3 %.6g  n=%d\n", spec.Name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N)
	}
}

func printLadder(ladder []rung) {
	if len(ladder) == 0 {
		return
	}
	fmt.Println("cost stack on tq-steady, ns per request, outside in:")
	for _, r := range ladder {
		fmt.Printf("  %-14s %9.1f  %s\n", r.Name, r.NsPerRequest, r.Note)
	}
}

// writeTrace writes the run's spans as a Chrome trace.
func writeTrace(path string, procs []traceProcess) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeSpans(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
