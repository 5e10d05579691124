package rack

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Variant identifies one fleet configuration in a rack sweep: a
// routing policy on N instances of a registry machine.
type Variant struct {
	// Policy is the routing policy name (RouterNames).
	Policy string
	// Machine is the per-node registry machine name.
	Machine string
	// N is the fleet size.
	N int
}

// Fleet returns the variant's Fleet value.
func (v Variant) Fleet() Fleet { return Fleet{N: v.N, Machine: v.Machine, Policy: v.Policy} }

// Variants builds the cross product policies × machines × sizes in
// that nesting order — the grid Sweep iterates.
func Variants(policies, machines []string, sizes []int) []Variant {
	var out []Variant
	for _, p := range policies {
		for _, m := range machines {
			for _, n := range sizes {
				out = append(out, Variant{Policy: p, Machine: m, N: n})
			}
		}
	}
	return out
}

// SweepResult pairs one variant with its rate-sweep results, in rate
// order.
type SweepResult struct {
	// Variant is the fleet configuration the results belong to.
	Variant Variant
	// Results holds one fleet-aggregate Result per rate-grid point.
	Results []*cluster.Result
}

// Sweep runs every variant over the rate grid on one cluster.Plan pool:
// each (variant, rate) point is an independent fleet simulation under
// its own derived seed, so the returned series are identical for any
// worker count. Results come back in variant order, each series in rate
// order.
func Sweep(variants []Variant, w *workload.Workload, rates []float64, dur, warm sim.Time, seed uint64, opt cluster.SweepOptions) []SweepResult {
	plan := cluster.NewPlan(opt)
	curves := make([]*cluster.Curve, len(variants))
	for i, v := range variants {
		fleet := v.Fleet()
		curves[i] = plan.Sweep(func() cluster.Machine { return fleet }, w, rates, dur, warm, seed)
	}
	plan.Run()
	out := make([]SweepResult, len(variants))
	for i, v := range variants {
		out[i] = SweepResult{Variant: v, Results: curves[i].Results}
	}
	return out
}
