// Command gen regenerates the measured tables in the sibling
// FINDINGS.md files. Every number those files quote comes from this
// tool at the pinned seeds — rerun it after any scheduler change and
// diff the output against the committed findings.
//
// Usage: go run ./hypotheses/gen [-quick]
package main

import (
	"flag"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "reduced durations (CI-scale smoke, not the committed numbers)")
	flag.Parse()
	dur, warm := 200*sim.Millisecond, 20*sim.Millisecond
	if *quick {
		dur, warm = 20*sim.Millisecond, 2*sim.Millisecond
	}
	h1(dur, warm)
	h2(dur, warm)
	h3(dur, warm)
}

func run(name string, cfg cluster.RunConfig) *cluster.Result {
	return cluster.MustLookup(name).Build(cluster.Options{}).Run(cfg)
}

// h1: does TQ's advantage over Shinjuku grow with Pareto tail weight?
func h1(dur, warm sim.Time) {
	fmt.Println("## h1-heavy-tail-cv")
	fmt.Printf("| alpha | load | TQ p99.9 (µs) | Shinjuku p99.9 (µs) | ratio |\n")
	fmt.Printf("|-------|------|---------------|---------------------|-------|\n")
	for _, alpha := range []string{"2.5", "1.8", "1.4"} {
		w, err := workload.FromLaw("pareto:mean=10us,alpha=" + alpha)
		if err != nil {
			panic(err)
		}
		for _, load := range []float64{0.55, 0.8} {
			cfg := cluster.RunConfig{
				Workload: w, Rate: load * w.MaxLoad(16),
				Duration: dur, Warmup: warm, Seed: 101,
			}
			tq := run("tq", cfg).P999SojournUs("Req")
			sj := run("shinjuku", cfg).P999SojournUs("Req")
			fmt.Printf("| %s | %.0f%% | %.0f | %.0f | %.2f |\n", alpha, load*100, tq, sj, sj/tq)
		}
	}
	fmt.Println()
}

// h2: do MMPP bursts hurt uncoordinated d-FCFS more than machines with
// a centralized view?
func h2(dur, warm sim.Time) {
	fmt.Println("## h2-mmpp-dfcfs")
	hb := workload.HighBimodal()
	fmt.Printf("| machine | arrivals | p99.9 Short (µs) | vs poisson |\n")
	fmt.Printf("|---------|----------|------------------|------------|\n")
	for _, name := range []string{"d-fcfs", "shinjuku", "tq"} {
		base := 0.0
		for _, arr := range []string{"poisson", "mmpp:burst=10,duty=0.1,cycle=1ms", "mmpp:burst=30,duty=0.05,cycle=1ms"} {
			cfg := cluster.RunConfig{
				Workload: hb, Rate: 0.6 * hb.MaxLoad(16),
				Duration: dur, Warmup: warm, Seed: 103, Arrivals: arr,
			}
			p := run(name, cfg).P999SojournUs("Short")
			if base == 0 {
				base = p
			}
			fmt.Printf("| %s | %s | %.1f | %.1fx |\n", name, arr, p, p/base)
		}
	}
	fmt.Println()
}

// h3: do admission shares protect a small tenant from a noisy
// neighbour under overload?
func h3(dur, warm sim.Time) {
	fmt.Println("## h3-tenant-isolation")
	w := workload.Fixed("tiny", 100*sim.Nanosecond)
	fmt.Printf("| shares | tenant | offered | completed | drop rate |\n")
	fmt.Printf("|--------|--------|---------|-----------|-----------|\n")
	for _, shares := range []bool{false, true} {
		tenants := []workload.Tenant{{Name: "big", Ratio: 0.9}, {Name: "small", Ratio: 0.1}}
		if shares {
			tenants[0].Share = 0.5
			tenants[1].Share = 0.25
		}
		cfg := cluster.RunConfig{
			Workload: w, Rate: 30e6,
			Duration: dur / 10, Warmup: warm / 10, Seed: 107, Tenants: tenants,
		}
		res := run("shinjuku", cfg)
		for _, tm := range res.PerTenant {
			fmt.Printf("| %v | %s | %d | %d | %.3f |\n",
				shares, tm.Name, tm.Offered, tm.Completed, float64(tm.Dropped)/float64(tm.Offered))
		}
	}
	fmt.Println()
}
