// Command tqtrace works with scheduling timelines in the unified obs
// vocabulary: it generates comparison traces from the machine models,
// summarizes trace files into scheduling metrics, and diffs two
// schedulers' behaviour on the same workload.
//
// Usage:
//
//	tqtrace export -o trace.json        # TQ vs Shinjuku comparison trace
//	tqtrace summarize trace.json        # per-scheduler metrics report
//	tqtrace diff a.json b.json          # side-by-side scheduler diff
//
// Export writes Chrome trace-event JSON: open it at https://ui.perfetto.dev
// (or chrome://tracing) to see one process per scheduler, with a
// loadgen track, a dispatcher track, and one track per worker core.
// Summarize and diff read the same files back losslessly, so anything
// exported here — or by tqsim -trace, or a live tqrt run — can be
// inspected without Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "export":
		err = export(os.Args[2:])
	case "summarize":
		err = summarize(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tqtrace export [-o file] [-seed n] [-workers n] [-duration d] [-load f] [-machines a,b]
  tqtrace summarize file.json [-window d]
  tqtrace diff a.json b.json`)
}

// export runs a comparison at identical arrivals — by default TQ and
// Shinjuku on the Extreme Bimodal workload, or any set of registered
// machines via -machines — and writes the multi-process Chrome trace.
func export(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "trace.json", "output file")
	seed := fs.Uint64("seed", 1, "random seed (shared by all machines)")
	workers := fs.Int("workers", 2, "worker cores per machine (canned TQ-vs-Shinjuku pair only)")
	duration := fs.Duration("duration", 2*time.Millisecond, "simulated duration")
	load := fs.Float64("load", 0.6, "offered load as a fraction of capacity")
	machines := fs.String("machines", "", `comma-separated registry machines at default parameters (e.g. "tq,d-fcfs"); empty runs the canned 2-worker TQ-vs-Shinjuku pair`)
	fs.Parse(args)

	w := workload.ExtremeBimodal()
	cfg := cluster.RunConfig{
		Workload: w,
		Rate:     *load * w.MaxLoad(*workers),
		Duration: sim.Time((*duration).Nanoseconds()),
		Warmup:   0,
		Seed:     *seed,
	}
	var procs []obs.Process
	var err error
	if *machines != "" {
		var names []string
		for _, n := range strings.Split(*machines, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		// Registry machines keep their default worker counts; scale the
		// offered load to the catalogue's 16-worker configurations.
		cfg.Rate = *load * w.MaxLoad(16)
		procs, err = cluster.TraceComparisonNamed(cfg, 0, names...)
	} else {
		tq := cluster.NewTQParams()
		tq.Workers = *workers
		sj := cluster.NewShinjukuParams(5 * sim.Microsecond)
		sj.Workers = *workers
		procs, err = cluster.TraceComparison(cfg, 0, cluster.NewTQ(tq), cluster.NewShinjuku(sj))
	}
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // for the error path; a second Close is harmless
	if err := obs.WriteChrome(f, procs...); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: ", *out)
	for i, p := range procs {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s (%d events)", p.Name, len(p.Events))
	}
	fmt.Println("\nopen in https://ui.perfetto.dev or summarize with: tqtrace summarize", *out)
	return nil
}

// summarize reads a trace file and prints each scheduler's metrics,
// plus a windowed time series when -window is set.
func summarize(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("summarize needs a trace file")
	}
	path := args[0]
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	window := fs.Duration("window", 0, "also print a windowed time series at this width")
	fs.Parse(args[1:])

	procs, err := readTrace(path)
	if err != nil {
		return err
	}
	for _, p := range procs {
		s := obs.Summarize(p.Name, p.Events)
		s.Format(os.Stdout)
		if *window > 0 {
			wins := obs.Windows(p.Events, (*window).Nanoseconds())
			if err := obs.WriteWindowsTSV(os.Stdout, wins); err != nil {
				return err
			}
		}
	}
	return nil
}

// diff compares two schedulers: the first process of each named file,
// or — given a single file holding several processes — its first two.
func diff(args []string) error {
	var a, b obs.Process
	switch len(args) {
	case 1:
		procs, err := readTrace(args[0])
		if err != nil {
			return err
		}
		if len(procs) < 2 {
			return fmt.Errorf("%s holds %d process(es); diffing one file needs two", args[0], len(procs))
		}
		a, b = procs[0], procs[1]
	case 2:
		pa, err := readTrace(args[0])
		if err != nil {
			return err
		}
		pb, err := readTrace(args[1])
		if err != nil {
			return err
		}
		if len(pa) == 0 || len(pb) == 0 {
			return fmt.Errorf("empty trace file")
		}
		a, b = pa[0], pb[0]
	default:
		return fmt.Errorf("diff takes one or two trace files")
	}
	obs.Diff(os.Stdout, obs.Summarize(a.Name, a.Events), obs.Summarize(b.Name, b.Events))
	return nil
}

func readTrace(path string) ([]obs.Process, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	procs, err := obs.ReadChrome(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return procs, nil
}
