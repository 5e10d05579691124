package cluster

import (
	"repro/internal/pifo"
	"repro/internal/sim"
)

// This file binds the pifo policy table to the machine kernel's job
// state: a ranker owns one Discipline for a run plus the per-class SLO
// targets EDF deadlines derive from, and computes every queue rank the
// rewired machines (TQ's worker queues, CT-PS's global queue, d-FCFS's
// per-worker NIC queues) push with. The machines keep their event
// logic; the discipline is data threaded through their params structs
// and the registry's Options.Discipline.

// ranker computes pifo ranks for pooled jobs under one discipline.
type ranker struct {
	d pifo.Discipline
	// slo is the per-class sojourn target (0 = none), indexed by class;
	// EDF's deadline is arrival + slo, so with no target EDF degenerates
	// to FCFS.
	slo []sim.Time
}

// newRanker resolves the discipline's per-class deadline targets from
// the run configuration (the same resolution metrics applies for
// goodput accounting).
func newRanker(d pifo.Discipline, cfg RunConfig) ranker {
	return ranker{d: d, slo: sloTargets(cfg)}
}

// sloTargets resolves RunConfig.SLOs into a per-class target slice
// (key "*" is the wildcard; absent classes get 0 = no target), in
// workload class order. Tenant-scoped keys ("tenant:class") contain a
// colon and so never collide with class names here; they resolve
// through sloTenantTargets.
func sloTargets(cfg RunConfig) []sim.Time {
	out := make([]sim.Time, 0, len(cfg.Workload.Classes))
	for _, c := range cfg.Workload.Classes {
		target := cfg.SLOs[c.Name]
		if target == 0 {
			target = cfg.SLOs["*"]
		}
		out = append(out, target)
	}
	return out
}

// sloTenantTargets resolves RunConfig.SLOs into a tenant×class target
// table (indexed tenant*nClasses + class). Per cell the most specific
// key wins: "tenant:class", then "tenant:*", then "class", then "*".
func sloTenantTargets(cfg RunConfig) []sim.Time {
	nc := len(cfg.Workload.Classes)
	out := make([]sim.Time, 0, len(cfg.Tenants)*nc)
	for _, t := range cfg.Tenants {
		for _, c := range cfg.Workload.Classes {
			target := cfg.SLOs[t.Name+":"+c.Name]
			if target == 0 {
				target = cfg.SLOs[t.Name+":*"]
			}
			if target == 0 {
				target = cfg.SLOs[c.Name]
			}
			if target == 0 {
				target = cfg.SLOs["*"]
			}
			out = append(out, target)
		}
	}
	return out
}

// rank computes j's rank at the push instant now. The job's class
// index doubles as its PrioAge priority level (class 0 highest), and
// Remaining exposes true service only to disciplines that read it —
// using SRPT makes the machine clairvoyant, which is exactly what the
// oracle wants and what the blind defaults avoid.
//
//simvet:hotpath
func (rk *ranker) rank(j *job, now sim.Time) int64 {
	return rk.d.Rank(pifo.RankInputs{
		Now:       int64(now),
		Arrival:   int64(j.arrival),
		Remaining: int64(j.remain),
		Attained:  int64(j.service - j.remain),
		Deadline:  int64(j.arrival + rk.slo[j.class]),
		Priority:  int64(j.class),
	})
}

// parseDiscipline validates a params-level discipline name at
// construction time, so a typo panics where the machine is built, not
// mid-run. Empty means "use the machine's default".
func parseDiscipline(name string, def pifo.Discipline) pifo.Discipline {
	if name == "" {
		return def
	}
	d, err := pifo.Parse(name)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	return d
}

// disciplineName renders a machine display name with its non-default
// discipline suffix ("TQ+srpt"); the empty discipline keeps the base
// name, so default configurations report exactly as before.
func disciplineName(base, discipline string) string {
	if discipline == "" {
		return base
	}
	return base + "+" + discipline
}
