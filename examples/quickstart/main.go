// Quickstart: schedule a bimodal mix of short and long jobs on the
// live Tiny Quanta runtime and watch preemptive processor sharing keep
// short-job latency low.
//
// The scenario is the paper's motivating head-of-line-blocking case:
// long jobs are already occupying the worker when short jobs arrive.
// Under FCFS the short jobs wait for entire long jobs; with tiny
// quanta they overtake within a few preemption rounds.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Pass -trace to also record the TQ run's scheduling timeline as
// Chrome trace-event JSON — open it at https://ui.perfetto.dev, or
// inspect it with `go run ./cmd/tqtrace summarize trace.json`. See
// EXPERIMENTS.md "Reading a trace" for a guided tour.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/tqrt"
)

// work busy-spins for the given amount of active CPU time, calling
// Probe between slices — the probe points a compiler pass would insert
// automatically in the paper's system.
func work(y *tqrt.Yield, active time.Duration) {
	const slice = 5 * time.Microsecond
	var done time.Duration
	for done < active {
		begin := time.Now()
		// Simulates the straight-line compute between compiler-inserted
		// probes; the spin is bounded by the 5µs slice, far below any quantum.
		// tqvet:ignore bounded 5µs spin slice
		for time.Since(begin) < slice {
		}
		done += slice
		y.Probe()
	}
}

func run(quantum time.Duration, tracePath string) (p50, p99 time.Duration) {
	cfg := tqrt.Config{Workers: 1, Coroutines: 8, Quantum: quantum}
	if tracePath != "" {
		cfg.TraceCap = 1 << 16
	}
	rt := tqrt.New(cfg)
	rt.Start()

	// Four 5ms jobs grab the worker first.
	for i := 0; i < 4; i++ {
		rt.Submit(func(y *tqrt.Yield) { work(y, 5*time.Millisecond) })
	}
	time.Sleep(time.Millisecond) // let the long jobs get going

	// Sixteen 50µs jobs arrive behind them.
	var mu sync.Mutex
	var lats []time.Duration
	for i := 0; i < 16; i++ {
		arrive := time.Now()
		rt.Submit(func(y *tqrt.Yield) {
			work(y, 50*time.Microsecond)
			// tqvet:ignore contention-free ns-scale critical section at task end
			mu.Lock()
			lats = append(lats, time.Since(arrive))
			mu.Unlock()
		})
	}
	rt.Stop()

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quickstart:", err)
			os.Exit(1)
		}
		err = rt.WriteTrace(f, "quickstart-TQ")
		if cerr := f.Close(); err == nil {
			err = cerr // a full disk may only show at Close
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "quickstart:", err)
			os.Exit(1)
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[len(lats)-1]
}

func main() {
	tracePath := flag.String("trace", "", "write the TQ run's scheduling timeline (Chrome trace JSON) to this file")
	flag.Parse()

	psP50, psP99 := run(20*time.Microsecond, *tracePath) // TQ: 20µs quanta
	fcfsP50, fcfsP99 := run(0, "")                       // FCFS: no preemption

	fmt.Printf("%-24s short-job p50=%-12v worst=%v\n", "TQ (20µs quanta):", psP50, psP99)
	fmt.Printf("%-24s short-job p50=%-12v worst=%v\n", "FCFS (no preemption):", fcfsP50, fcfsP99)
	fmt.Println("\nWith tiny quanta, short jobs overtake the in-progress 5ms jobs;")
	fmt.Println("under FCFS they wait for whole long jobs to finish first.")
	if *tracePath != "" {
		fmt.Printf("\nwrote TQ timeline to %s (open in https://ui.perfetto.dev, or: go run ./cmd/tqtrace summarize %s)\n",
			*tracePath, *tracePath)
	}
}
