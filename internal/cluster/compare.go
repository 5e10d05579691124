package cluster

import (
	"fmt"

	"repro/internal/obs"
)

// TraceComparison runs the same configuration once per machine, each
// into a fresh recorder, and returns one obs.Process per machine —
// ready for obs.WriteChrome, which renders them as side-by-side
// Perfetto process tracks. Every timeline is validated before it is
// returned; cap bounds each recording (0 means obs.DefaultCap).
//
// The machines share RunConfig — same workload, rate, duration, and
// seed — so every run is reproducible and the arrival processes are
// statistically identical; differences between the tracks are
// scheduling policy, not configuration.
func TraceComparison(cfg RunConfig, cap int, machines ...Machine) ([]obs.Process, error) {
	var procs []obs.Process
	for _, m := range machines {
		rec := obs.NewRing(cap)
		c := cfg
		c.Obs = rec
		m.Run(c)
		if rec.Truncated() {
			return nil, fmt.Errorf("%s: trace truncated at %d events (%d discarded); raise the cap or shorten the run",
				m.Name(), rec.Len(), rec.Discarded())
		}
		if err := obs.Validate(rec.Events()); err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name(), err)
		}
		procs = append(procs, obs.Process{Name: m.Name(), Events: rec.Events()})
	}
	return procs, nil
}

// TraceComparisonNamed is TraceComparison over registry names: each
// name is resolved through Lookup and run with its default parameters.
// Unknown names error with the known catalogue.
func TraceComparisonNamed(cfg RunConfig, cap int, names ...string) ([]obs.Process, error) {
	var machines []Machine
	for _, n := range names {
		e, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("cluster: unknown machine %q (known: %s)", n, joinNames())
		}
		machines = append(machines, e.Build(Options{}))
	}
	return TraceComparison(cfg, cap, machines...)
}
