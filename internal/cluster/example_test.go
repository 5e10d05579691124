package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Example compares two registered machines on the High Bimodal
// workload at 60% load. The registry is the front door to the machine
// catalogue: cluster.Lookup resolves a stable name ("tq", "d-fcfs",
// ...) to its paper-default constructor, and cluster.Names lists every
// registered machine.
func Example() {
	w := workload.HighBimodal()
	cfg := cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: 80 * sim.Millisecond,
		Warmup:   8 * sim.Millisecond,
		Seed:     1,
	}
	for _, name := range []string{"tq", "d-fcfs"} {
		entry, ok := cluster.Lookup(name)
		if !ok {
			panic("unknown machine " + name)
		}
		res := entry.Build(cluster.Options{}).Run(cfg)
		fmt.Printf("%s short jobs under 50µs p99.9: %v\n", res.System, res.P999EndToEndUs("Short") < 50)
	}
	// Output:
	// TQ short jobs under 50µs p99.9: true
	// d-FCFS short jobs under 50µs p99.9: false
}
