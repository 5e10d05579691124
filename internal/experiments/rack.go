package experiments

import (
	"repro/internal/cluster"
	"repro/internal/rack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RackComparison holds one rack routing figure: routing policies swept
// side by side over an N-machine fleet of one registry machine, with
// per-class p99 and p99.9 sojourn curves plus the fleet goodput and
// drop-rate companions (one series per policy throughout).
type RackComparison struct {
	// Workload and Machine name the workload and the per-node registry
	// machine; N is the fleet size.
	Workload string
	Machine  string
	N        int
	// P99 and P999 map class name to per-policy sojourn curves (µs).
	// Routing quality shows earlier in the p99 tail — one bad placement
	// per hundred requests — so both resolutions are reported.
	P99  map[string][]stats.Series
	P999 map[string][]stats.Series
	// Goodput and DropRate are the overload companions: survivor-only
	// percentiles flatten exactly where per-machine admission starts
	// shedding, and under overload the routing policy decides how much
	// of the fleet's aggregate capacity survives.
	Goodput  []stats.Series
	DropRate []stats.Series
}

// rackOverloadFactor extends the rack rate grid past fleet saturation:
// routing policies only separate once queues form, so the sweep tops
// out at 125% of the fleet's aggregate capacity.
const rackOverloadFactor = 1.25

// CompareRack sweeps routing policies side by side over an N-machine
// fleet of one registry machine — the driver behind tqsim -rack. Each
// (policy, rate) point is an independent fleet simulation on the
// figure's one pool, so curves are identical for any worker count. The grid runs to rackOverloadFactor× the fleet's aggregate
// 16-worker saturation so the overload regime — where routing decides
// tail latency and goodput — is on every curve.
func CompareRack(sc Scale, w *workload.Workload, n int, machine string, policies []string) RackComparison {
	cmp := RackComparison{
		Workload: w.Name,
		Machine:  machine,
		N:        n,
		P99:      map[string][]stats.Series{},
		P999:     map[string][]stats.Series{},
	}
	rates := cluster.RatesUpTo(rackOverloadFactor*w.MaxLoad(16*n), sc.Points)
	var systems []system
	for _, v := range rack.Variants(policies, []string{machine}, []int{n}) {
		fleet := v.Fleet()
		systems = append(systems, system{v.Policy, func() cluster.Machine { return fleet }})
	}
	f := sc.figure()
	curves := f.sweepSystems(w, rates, systems)
	f.plan.Run()
	for _, c := range w.Classes {
		cmp.P99[c.Name] = readSeries(systems, curves, cluster.P99SojournSeries, c.Name)
		cmp.P999[c.Name] = readSeries(systems, curves, cluster.SojournSeries, c.Name)
	}
	for i, s := range systems {
		cmp.Goodput = append(cmp.Goodput, cluster.GoodputSeries(s.label, curves[i].Results))
		cmp.DropRate = append(cmp.DropRate, cluster.DropRateSeries(s.label, curves[i].Results))
	}
	return cmp
}
