package cluster

import "repro/internal/sim"

// This file groups the variant constructors: the paper's
// discussion-section extensions and related-work baselines, beyond the
// evaluated systems, each expressed as a parameterization of one of the
// kernel-ported machines:
//
//   - least-attained-service (LAS) quantum scheduling on TQ workers —
//     the dynamic-quantum policy §3.1's probe design explicitly
//     supports;
//   - multiple dispatcher cores (§6's proposed fix for dispatcher
//     saturation);
//   - Concord [32], the concurrent centralized system that replaces
//     interrupts with a shared cache-line flag;
//   - LibPreemptible [38], preemptive user-level threading on hardware
//     user interrupts (UINTR, ≈2000-cycle delivery);
//   - the idealized overhead-free TLS machine behind the Figure 4
//     policy simulation.

// NewTQLAS returns a TQ machine whose workers schedule by least
// attained service instead of round-robin PS.
func NewTQLAS(p TQParams) *TQ {
	p.Discipline = "las"
	return NewTQ(p).Named("TQ-LAS")
}

// NewLibPreemptible returns the LibPreemptible-style baseline of §7:
// per-worker preemption with hardware user interrupts. Workers need no
// external core (like TQ), but every preemption costs ≈2000 cycles
// (≈950ns at 2.1GHz) and quanta below 3µs are not supported, so the
// machine clamps the quantum.
func NewLibPreemptible(p TQParams) *TQ {
	p.YieldOverhead = 950 * sim.Nanosecond
	p.ProbeOverhead = 0 // no compiler instrumentation needed
	if p.Quantum < sim.Micros(3) {
		p.Quantum = sim.Micros(3)
	}
	return NewTQ(p).Named("LibPreemptible")
}

// NewConcord returns the Concord-style baseline of §7: centralized
// scheduling like Shinjuku, but preemption is signalled through a
// shared cache line the dispatcher writes and workers poll, so the
// per-preemption costs drop by an order of magnitude — while the
// dispatcher keeps its per-quantum scheduling load, which is what
// bounds its throughput (§7 reports saturation near 4Mrps).
func NewConcord(quantum sim.Time) *Shinjuku {
	p := NewShinjukuParams(quantum)
	p.IPICost = 20 * sim.Nanosecond            // cache-line write
	p.InterruptOverhead = 100 * sim.Nanosecond // flag check + coroutine swap
	p.NetCost = 150 * sim.Nanosecond
	p.SchedCost = 90 * sim.Nanosecond
	s := NewShinjuku(p)
	s.name = "Concord"
	return s
}

// NewIdealTLS returns a TQ machine stripped of every overhead, used by
// the Figure 4 policy simulation ("TLS"): JSQ dispatch with the given
// balancer, unbounded coroutines, free yields. It isolates the policy
// comparison (CT vs JSQ-PS with MSQ or random tie-breaking) from
// mechanism costs, exactly as §3.2 does.
func NewIdealTLS(workers int, quantum sim.Time, balancer BalancerKind) *TQ {
	p := TQParams{
		Workers:       workers,
		Quantum:       quantum,
		Coroutines:    1 << 20, // effectively unbounded: pure per-core PS
		YieldOverhead: 0,
		ProbeOverhead: 0,
		DispatchCost:  0,
		ParseCost:     0,
		StatsPeriod:   100 * sim.Nanosecond,
		RTT:           0,
		Balancer:      balancer,
	}
	name := "TLS-JSQ-PS"
	switch balancer {
	case BalanceJSQMSQ:
		name += "-MSQ"
	case BalanceJSQRandom:
		name += "-RAND-TIE"
	case BalanceRandom:
		name = "TLS-RAND-PS"
	case BalancePowerTwo:
		name = "TLS-P2C-PS"
	}
	return NewTQ(p).Named(name)
}
