// Package hypotheses pins the committed FINDINGS.md verdicts: each
// test re-runs its experiment at reduced scale with the pinned seed
// and asserts the *directional* claim of the verdict — not the exact
// full-scale numbers, which only `go run ./hypotheses/gen`
// regenerates. A scheduler change that flips a finding fails here
// instead of silently invalidating a committed document.
package hypotheses

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	reproDur  = 40 * sim.Millisecond
	reproWarm = 4 * sim.Millisecond
)

func run(t *testing.T, name string, cfg cluster.RunConfig) *cluster.Result {
	t.Helper()
	res := cluster.MustLookup(name).Build(cluster.Options{}).Run(cfg)
	if res.Completed == 0 {
		t.Fatalf("%s completed nothing", name)
	}
	return res
}

// TestH1HeavyTailCV repros the h1-heavy-tail-cv refutation: TQ beats
// Shinjuku at every Pareto tail weight, but the 80%-load p99.9 ratio
// does NOT grow as the tail gets heavier (α=1.4's ratio stays below
// α=2.5's).
func TestH1HeavyTailCV(t *testing.T) {
	ratio := func(alpha string) float64 {
		w, err := workload.FromLaw("pareto:mean=10us,alpha=" + alpha)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.RunConfig{
			Workload: w, Rate: 0.8 * w.MaxLoad(16),
			Duration: reproDur, Warmup: reproWarm, Seed: 101,
		}
		tq := run(t, "tq", cfg).P999SojournUs("Req")
		sj := run(t, "shinjuku", cfg).P999SojournUs("Req")
		return sj / tq
	}
	light, heavy := ratio("2.5"), ratio("1.4")
	if light <= 1 || heavy <= 1 {
		t.Errorf("TQ no longer dominates Shinjuku: ratios %.2f (α=2.5), %.2f (α=1.4)", light, heavy)
	}
	if heavy > light {
		t.Errorf("verdict flipped: heavier tail now widens the gap (α=1.4 ratio %.2f > α=2.5 ratio %.2f) — re-run hypotheses/gen and update h1's FINDINGS.md", heavy, light)
	}
}

// TestH2MMPPDFCFS repros the h2-mmpp-dfcfs refutation: under the
// strong MMPP, d-FCFS's *relative* p99.9 degradation is the smallest
// of the three machines, while its *absolute* tail stays the worst.
func TestH2MMPPDFCFS(t *testing.T) {
	hb := workload.HighBimodal()
	measure := func(name, arrivals string) float64 {
		return run(t, name, cluster.RunConfig{
			Workload: hb, Rate: 0.6 * hb.MaxLoad(16),
			Duration: reproDur, Warmup: reproWarm, Seed: 103, Arrivals: arrivals,
		}).P999SojournUs("Short")
	}
	const burst = "mmpp:burst=30,duty=0.05,cycle=1ms"
	factors := map[string]float64{}
	absolute := map[string]float64{}
	for _, name := range []string{"d-fcfs", "shinjuku", "tq"} {
		base := measure(name, "poisson")
		bursty := measure(name, burst)
		factors[name] = bursty / base
		absolute[name] = bursty
	}
	if factors["d-fcfs"] > factors["shinjuku"] || factors["d-fcfs"] > factors["tq"] {
		t.Errorf("verdict flipped: d-fcfs now degrades relatively most (factors %v) — re-run hypotheses/gen and update h2's FINDINGS.md", factors)
	}
	if absolute["d-fcfs"] < absolute["shinjuku"] {
		t.Errorf("h2's analysis claims d-fcfs stays worst absolutely, but d-fcfs %.0fµs < shinjuku %.0fµs under bursts", absolute["d-fcfs"], absolute["shinjuku"])
	}
}

// TestH3TenantIsolation repros the h3-tenant-isolation confirmation:
// the reserved share materially raises the small tenant's completions
// and pushes its drop rate below the noisy neighbour's.
func TestH3TenantIsolation(t *testing.T) {
	small := func(shares bool) (cluster.TenantMetrics, cluster.TenantMetrics) {
		tenants := []workload.Tenant{{Name: "big", Ratio: 0.9}, {Name: "small", Ratio: 0.1}}
		if shares {
			tenants[0].Share = 0.5
			tenants[1].Share = 0.25
		}
		res := run(t, "shinjuku", cluster.RunConfig{
			Workload: workload.Fixed("tiny", 100*sim.Nanosecond), Rate: 30e6,
			Duration: 4 * sim.Millisecond, Warmup: 400 * sim.Microsecond,
			Seed: 107, Tenants: tenants,
		})
		return res.PerTenant[1], res.PerTenant[0]
	}
	withS, big := small(true)
	without, _ := small(false)
	if withS.Completed < 2*without.Completed {
		t.Errorf("verdict flipped: shares no longer double small-tenant completions (%d with, %d without) — re-run hypotheses/gen and update h3's FINDINGS.md", withS.Completed, without.Completed)
	}
	drop := func(m cluster.TenantMetrics) float64 { return float64(m.Dropped) / float64(m.Offered) }
	if drop(withS) >= drop(big) {
		t.Errorf("protected tenant drops at %.3f, neighbour at %.3f; want protection", drop(withS), drop(big))
	}
}
