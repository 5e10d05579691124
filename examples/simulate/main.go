// Simulate: reproduce the heart of the paper's Figure 7 in-process —
// TQ vs Shinjuku vs Caladan on the Extreme Bimodal workload — using
// the discrete-event machine models and the public experiment drivers.
//
// Run with:
//
//	go run ./examples/simulate
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	w := workload.ExtremeBimodal()
	fmt.Printf("workload: %s (mean service %.2fµs, dispersion %.0fx)\n\n",
		w.Name, w.MeanService().Micros(), w.DispersionRatio())

	// Machines come from the registry: stable names, paper-default
	// parameters (Shinjuku's catalogue default is its 5µs bimodal
	// sweet spot). cluster.Names() lists the full catalogue.
	var systems []cluster.Machine
	for _, name := range []string{"tq", "shinjuku", "caladan-iokernel"} {
		systems = append(systems, cluster.MustLookup(name).Build(cluster.Options{}))
	}

	fmt.Printf("%-22s %12s %16s %16s\n", "system", "rate(Mrps)", "Short p99.9(µs)", "Long p99.9(µs)")
	for _, frac := range []float64{0.3, 0.6, 0.8} {
		rate := frac * w.MaxLoad(16)
		for _, m := range systems {
			res := m.Run(cluster.RunConfig{
				Workload: w,
				Rate:     rate,
				Duration: 150 * sim.Millisecond,
				Warmup:   15 * sim.Millisecond,
				Seed:     1,
			})
			fmt.Printf("%-22s %12.2f %16.1f %16.1f\n",
				m.Name(), rate/1e6,
				res.P999EndToEndUs("Short"), res.P999EndToEndUs("Long"))
		}
		fmt.Println()
	}
	fmt.Println("TQ holds short-job tails near the long jobs' shadow at loads where")
	fmt.Println("Caladan's FCFS head-of-line blocking and Shinjuku's interrupt costs bite.")
}
