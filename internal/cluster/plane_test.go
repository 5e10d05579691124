package cluster

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// This file extends the conformance suite across the workload plane's
// new axes: every arrival process crossed with one machine from each
// model family, plus the multi-tenant accounting and admission-share
// invariants.

// familyMachines picks one registry entry per machine family, so the
// arrival-process cross stays affordable while still touching every
// kernel policy shape (TQ's RSS lanes, Shinjuku's serial stage,
// Caladan's packet core, free-scheduler PS, per-worker d-FCFS lanes,
// and the clairvoyant oracle).
var familyMachines = []string{
	"tq", "shinjuku", "caladan-iokernel", "ct-ps", "d-fcfs", "oracle-srpt",
}

var arrivalSpecs = []string{
	"poisson",
	"mmpp:burst=10,duty=0.1,cycle=1ms",
	"diurnal:amp=0.8,period=1ms",
	"closed:users=64,think=10us",
}

// TestArrivalProcessConformance crosses every arrival process with one
// machine per family and asserts the kernel invariants hold off the
// Poisson default path too: conservation, run-twice determinism, and —
// for the closed-loop process — actual progress (the feedback edge
// keeps the pump alive instead of deadlocking after the first window).
func TestArrivalProcessConformance(t *testing.T) {
	hb := workload.HighBimodal()
	for _, arrivals := range arrivalSpecs {
		for _, name := range familyMachines {
			e := MustLookup(name)
			t.Run(arrivals+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := RunConfig{
					Workload: hb,
					Rate:     0.7 * hb.MaxLoad(16),
					Duration: 5 * sim.Millisecond,
					Warmup:   sim.Millisecond,
					Seed:     31,
					Arrivals: arrivals,
				}
				res := e.Build(Options{}).Run(cfg)
				if res.Offered == 0 {
					t.Fatal("no requests resolved")
				}
				if res.Offered != res.Completed+res.Dropped {
					t.Errorf("conservation violated: offered %d != completed %d + dropped %d",
						res.Offered, res.Completed, res.Dropped)
				}
				again := summarize(e.Build(Options{}).Run(cfg))
				if !reflect.DeepEqual(summarize(res), again) {
					t.Errorf("run-twice mismatch\nfirst:  %+v\nsecond: %+v", summarize(res), again)
				}
			})
		}
	}
}

// TestClosedLoopMakesProgress pins the closed-loop feedback edge
// quantitatively: with N users each cycling request → retire → think,
// a machine that never reported retirements back to the stream would
// resolve at most N requests. Demand far more.
func TestClosedLoopMakesProgress(t *testing.T) {
	const users = 32
	cfg := RunConfig{
		Workload: workload.TPCC(),
		Rate:     1e6, // informational for closed loops; think time governs
		Duration: 5 * sim.Millisecond,
		Warmup:   sim.Millisecond,
		Seed:     41,
		Arrivals: "closed:users=32,think=20us",
	}
	for _, name := range familyMachines {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := e.Build(Options{}).Run(cfg)
			if res.Offered <= users {
				t.Fatalf("closed loop stalled: %d requests resolved with %d users — retirement feedback is not reaching the stream",
					res.Offered, users)
			}
		})
	}
}

// tenantConfig is the shared two-tenant scenario: a big tenant
// generating 90%% of the load and a small one generating 10%%.
func tenantConfig(shares bool) RunConfig {
	tenants := []workload.Tenant{
		{Name: "big", Ratio: 0.9},
		{Name: "small", Ratio: 0.1},
	}
	if shares {
		tenants[0].Share = 0.5
		tenants[1].Share = 0.25
	}
	hb := workload.HighBimodal()
	return RunConfig{
		Workload: hb,
		Rate:     0.8 * hb.MaxLoad(16),
		Duration: 5 * sim.Millisecond,
		Warmup:   sim.Millisecond,
		Seed:     43,
		Tenants:  tenants,
	}
}

// TestTenantConservation checks the per-tenant ledger on every machine
// family: each tenant individually obeys Offered == Completed +
// Dropped, and the tenant ledgers sum to the run totals — no request
// is double-booked or lost between tenants.
func TestTenantConservation(t *testing.T) {
	cfg := tenantConfig(false)
	for _, name := range familyMachines {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := e.Build(Options{}).Run(cfg)
			if len(res.PerTenant) != 2 {
				t.Fatalf("PerTenant has %d entries, want 2", len(res.PerTenant))
			}
			var off, comp, drop uint64
			for _, tm := range res.PerTenant {
				if tm.Offered != tm.Completed+tm.Dropped {
					t.Errorf("tenant %s: offered %d != completed %d + dropped %d",
						tm.Name, tm.Offered, tm.Completed, tm.Dropped)
				}
				off += tm.Offered
				comp += tm.Completed
				drop += tm.Dropped
			}
			if off != res.Offered || comp != res.Completed || drop != res.Dropped {
				t.Errorf("tenant ledgers sum to (%d,%d,%d), run totals are (%d,%d,%d)",
					off, comp, drop, res.Offered, res.Completed, res.Dropped)
			}
			// The 90/10 split must show up in the ledger.
			frac := float64(res.PerTenant[1].Offered) / float64(res.Offered)
			if frac < 0.07 || frac > 0.13 {
				t.Errorf("small tenant offered fraction %.3f, want ≈0.10", frac)
			}
		})
	}
}

// TestTenantSharesProtectSmallTenant drives a machine with a bounded
// RX stage into overload and checks that admission shares do what they
// claim: with a reserved slice, the small tenant's drop rate stays far
// below the noisy neighbour's; without shares, the ring is first come
// first served and the small tenant drops at roughly the common rate.
func TestTenantSharesProtectSmallTenant(t *testing.T) {
	overloaded := func(shares bool) RunConfig {
		cfg := tenantConfig(shares)
		cfg.Workload = workload.Fixed("tiny", 100*sim.Nanosecond)
		cfg.Rate = 30e6
		cfg.Duration = sim.Millisecond
		cfg.Warmup = 100 * sim.Microsecond
		return cfg
	}
	run := func(shares bool) (small, big TenantMetrics) {
		res := MustLookup("shinjuku").Build(Options{}).Run(overloaded(shares))
		if res.Dropped == 0 {
			t.Fatal("overload config did not overflow the RX ring")
		}
		return res.PerTenant[1], res.PerTenant[0]
	}
	smallWith, bigWith := run(true)
	smallWithout, _ := run(false)
	// Under 10x overload every tenant still drops most of its offered
	// load — the ring drains at system capacity regardless — so the
	// protection shows up as admitted throughput, not a low drop rate:
	// the reserved slice must at least double what the small tenant gets
	// through versus fighting the noisy neighbour for every slot.
	if smallWith.Completed < 2*smallWithout.Completed {
		t.Errorf("reserved share did not protect the small tenant: %d completed with shares, %d without",
			smallWith.Completed, smallWithout.Completed)
	}
	dropRate := func(m TenantMetrics) float64 { return float64(m.Dropped) / float64(m.Offered) }
	if dropRate(bigWith) <= dropRate(smallWith) {
		t.Errorf("noisy neighbour dropped less (%.3f) than the protected tenant (%.3f)",
			dropRate(bigWith), dropRate(smallWith))
	}
}

// TestTenantSLOPrecedence pins the SLO resolution order for the
// tenant-aware table: "tenant:class" beats "tenant:*" beats "class"
// beats "*".
func TestTenantSLOPrecedence(t *testing.T) {
	cfg := tenantConfig(false)
	cfg.SLOs = map[string]sim.Time{
		"*":              sim.Micros(400),
		"Payment":        sim.Micros(300),
		"small:*":        sim.Micros(200),
		"small:NewOrder": sim.Micros(100),
	}
	cfg.Workload = workload.TPCC()
	cfg.validate()
	tbl := sloTenantTargets(cfg)
	nc := len(cfg.Workload.Classes)
	classIdx := func(name string) int {
		for i, c := range cfg.Workload.Classes {
			if c.Name == name {
				return i
			}
		}
		t.Fatalf("class %s not in workload", name)
		return -1
	}
	no, pay := classIdx("NewOrder"), classIdx("Payment")
	// Tenant 0 ("big") has no tenant-scoped keys: class then wildcard.
	if got := tbl[0*nc+pay]; got != sim.Micros(300) {
		t.Errorf("big/Payment SLO %v, want class key 300µs", got)
	}
	if got := tbl[0*nc+no]; got != sim.Micros(400) {
		t.Errorf("big/NewOrder SLO %v, want wildcard 400µs", got)
	}
	// Tenant 1 ("small"): exact tenant:class, then tenant:*.
	if got := tbl[1*nc+no]; got != sim.Micros(100) {
		t.Errorf("small/NewOrder SLO %v, want tenant:class key 100µs", got)
	}
	if got := tbl[1*nc+pay]; got != sim.Micros(200) {
		t.Errorf("small/Payment SLO %v, want tenant:* key 200µs (beats class key)", got)
	}
}
