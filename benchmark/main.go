// Command benchmark is the repository's benchmark: five workloads that
// exercise the simulator, the rack plane and the live runtime; four
// gated end-to-end metrics per workload; and an outside-in cost stack
// of per-layer metrics. README.md in this directory documents the
// workloads, the metrics and how they interact; BENCHMARK.json at the
// repository root is the same contract for the driver.
//
// Run one workload, as the driver does (the result is the last line):
//
//	bash benchmark/run.sh --workload tq-steady --seed 1 --seconds 18 --trace 0
//
// Run everything and keep the report and the trace:
//
//	go run ./benchmark -seed 1 -o benchmark/out/out.json
//
// Compare two reports, or validate one against BENCHMARK.json:
//
//	go run ./benchmark -diff A.json B.json
//	go run ./benchmark -check benchmark/out/out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// outDir is where a run leaves its files unless told otherwise; it is
// git-ignored.
var outDir = filepath.Join("benchmark", "out")

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result line (default: run them all)")
		seed         = flag.Uint64("seed", pinnedSeed, "seed every workload's inputs are generated from")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "-workload: 0 for the end-to-end metrics, 1 for the per-layer metrics and a Chrome trace under benchmark/out/")
		out          = flag.String("o", "", "full run: the report, trace.json beside it (default benchmark/out/out.json); -workload: also write the run's detailed record here")
		quick        = flag.Bool("quick", false, "smoke sizes: every job at 1/20 to 1/90 scale")
		diff         = flag.Bool("diff", false, "compare two reports: -diff A.json B.json")
		check        = flag.String("check", "", "validate this report against BENCHMARK.json (run from the repository root)")
		record       = flag.Bool("record-digests", false, "regenerate benchmark/testdata/digests.json (run from the repository root)")
	)
	flag.Parse()
	pinProcs()

	opt := runOptions{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace == 1}
	var err error
	switch {
	case *record:
		err = recordDigests(filepath.Join("benchmark", "testdata", "digests.json"))
	case *diff:
		err = diffFiles(flag.Args())
	case *check != "":
		err = checkFile(*check, "BENCHMARK.json")
	case *seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *workloadName != "":
		err = single(*workloadName, opt, *out)
	default:
		if *out == "" {
			*out = filepath.Join(outDir, "out.json")
		}
		err = runAll(opt, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// single is the driver's entry: one workload, one run, the result
// object on the last line of standard output.
func single(name string, opt runOptions, recordPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rec, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	printRecord(rec)
	if opt.trace {
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, []traceProcess{{Name: w.name, Spans: rec.Spans}}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("%d spans written to %s; self time by span name:\n", len(rec.Spans), path)
		self := selfTimes(rec.Spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-28s %10.3f ms\n", name, float64(self[name])/1e6)
		}
	}
	if recordPath != "" {
		if err := writeJSON(recordPath, rec); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
	}
	line, err := contractLine(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload and writes the report to out and the
// Chrome trace beside it; it fails if any correctness check did.
func runAll(opt runOptions, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	rep, err := runFull(opt, out)
	if err != nil {
		return err
	}
	rep.print()
	if err := writeJSON(out, rep); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("report written to %s, trace to %s\n", out, rep.TraceFile)
	if !rep.correct() {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

func diffFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-diff takes two report files")
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if !diffReports(os.Stdout, a, b) {
		return fmt.Errorf("%s is worse than %s, or an exact count changed", paths[1], paths[0])
	}
	return nil
}

func checkFile(reportPath, specPath string) error {
	rep, err := readReport(reportPath)
	if err != nil {
		return err
	}
	spec, err := readBenchmarkJSON(specPath)
	if err != nil {
		return err
	}
	problems := checkReport(rep, spec)
	for _, p := range problems {
		fmt.Println("problem:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s fails %d checks", reportPath, len(problems))
	}
	fmt.Printf("%s: ok (%d workloads, %d end-to-end and %d per-layer metrics)\n", reportPath, len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	return nil
}
