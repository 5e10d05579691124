// Package workload defines the µs-scale workloads evaluated in the
// Tiny Quanta paper (Table 1) and the programmable request plane that
// drives every experiment.
//
// The plane is composed from three independent axes:
//
//   - Service: a Workload is a distribution over request classes; each
//     class carries either a deterministic service time or a
//     ServiceSampler (exp, trace, pareto, lognormal — see service.go).
//   - Arrivals: an ArrivalProcess decides when requests land — the
//     paper's open-loop Poisson client (§5.1) by default, or MMPP
//     bursts, diurnal curves, closed-loop users (see arrival.go).
//   - Tenants: an optional tenant table splits traffic among named
//     sources with per-tenant admission shares (see spec.go).
//
// A Spec names one point in that space and Spec.Stream materializes it
// into the deterministic request stream the kernel pumps.
package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Class identifies a request type within a workload; it indexes
// per-class latency accounting.
type Class int

// Request is one unit of work presented to a scheduling system.
type Request struct {
	// ID is unique within a run, assigned in arrival order.
	ID uint64
	// Class indexes the workload's class table.
	Class Class
	// Tenant indexes the spec's tenant table (0 when the spec has no
	// tenants — a single anonymous tenant).
	Tenant int
	// Service is the job's total CPU demand. Blind schedulers must not
	// read this field to make decisions; it is consumed only by the
	// simulated execution of the job and by slowdown accounting.
	Service sim.Time
	// Arrival is the time the request hit the server's NIC.
	Arrival sim.Time
}

// ClassInfo describes one request class.
type ClassInfo struct {
	Name    string
	Service sim.Time // deterministic demand; display mean when Sampler is set
	Ratio   float64  // fraction of requests in this class
	// Sampler, if non-nil, draws this class's service times from a
	// distribution instead of the deterministic Service value.
	Sampler ServiceSampler
}

// Workload is a named distribution over request classes.
type Workload struct {
	Name    string
	Classes []ClassInfo
	// cumulative selection thresholds, parallel to Classes.
	cum []float64
}

// New builds a workload from class definitions. Ratios must be positive
// and sum to 1 (within 1e-9). A class with a Sampler and zero Service
// gets its display Service filled in from the sampler's mean.
func New(name string, classes []ClassInfo) *Workload {
	w := &Workload{Name: name, Classes: classes}
	total := 0.0
	for i, c := range classes {
		if c.Ratio <= 0 {
			panic(fmt.Sprintf("workload %s: class %s has non-positive ratio", name, c.Name))
		}
		if c.Sampler != nil && c.Service == 0 {
			w.Classes[i].Service = c.Sampler.Mean()
		}
		total += c.Ratio
		w.cum = append(w.cum, total)
	}
	if total < 1-1e-9 || total > 1+1e-9 {
		panic(fmt.Sprintf("workload %s: ratios sum to %v, want 1", name, total))
	}
	w.cum[len(w.cum)-1] = 1 // absorb rounding
	return w
}

// MeanService returns the expected service time of one request. For
// sampler-backed classes (exponential, trace, heavy-tail laws) it uses
// the sampler's true mean — for traces, the empirical mean — so
// capacity planning (MaxLoad, MaxRateUnder, sweep knees) is
// exact for every law.
func (w *Workload) MeanService() sim.Time {
	mean := 0.0
	for _, c := range w.Classes {
		if c.Sampler != nil {
			mean += c.Ratio * float64(c.Sampler.Mean())
		} else {
			mean += c.Ratio * float64(c.Service)
		}
	}
	return sim.Time(mean + 0.5)
}

// MaxLoad returns the arrival rate (requests/second) that saturates n
// cores, i.e. n / E[S]. Experiments sweep load as a fraction of this.
func (w *Workload) MaxLoad(cores int) float64 {
	return float64(cores) / w.MeanService().Seconds()
}

// Sample draws one request (without ID or arrival time) from the
// workload using r. The class pick is a binary search over the
// cumulative ratio table — this sits on the arrival hot path, and the
// TPC-C mix has five classes.
//
//simvet:hotpath
func (w *Workload) Sample(r *rng.Rand) Request {
	u := r.Float64()
	// First index with u < cum[i], capped at the last class — the exact
	// semantics of the historical linear scan, so class picks (and the
	// golden fixtures) are bit-identical.
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u >= w.cum[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := &w.Classes[lo]
	svc := c.Service
	if c.Sampler != nil {
		svc = c.Sampler.Sample(r)
		if svc < 1 {
			svc = 1 // a job needs at least 1ns of work
		}
	}
	return Request{Class: Class(lo), Service: svc}
}

// DispersionRatio returns the ratio between the longest and shortest
// class service times (the paper quotes 1000 for Extreme Bimodal). It
// is 1 for single-class and sampler-backed workloads, whose dispersion
// is a property of the law, not the class table.
func (w *Workload) DispersionRatio() float64 {
	if len(w.Classes) < 2 {
		return 1
	}
	for _, c := range w.Classes {
		if c.Sampler != nil {
			return 1
		}
	}
	min, max := w.Classes[0].Service, w.Classes[0].Service
	for _, c := range w.Classes[1:] {
		if c.Service < min {
			min = c.Service
		}
		if c.Service > max {
			max = c.Service
		}
	}
	return float64(max) / float64(min)
}

// The workloads of Table 1. The §2 motivation simulations use the
// round 0.5µs/500µs variant (Section2Bimodal); the system evaluation
// uses the measured 0.3µs/509µs variant.

// ExtremeBimodal is Table 1's Extreme Bimodal workload: 99.5% short
// (0.3µs) and 0.5% long (509µs) requests — dispersion ratio ≈1700.
func ExtremeBimodal() *Workload {
	return New("ExtremeBimodal", []ClassInfo{
		{Name: "Short", Service: sim.Micros(0.3), Ratio: 0.995},
		{Name: "Long", Service: sim.Micros(509), Ratio: 0.005},
	})
}

// Section2Bimodal is the idealized extreme bimodal mix used by the §2
// motivation simulations (Figures 1, 2, 4): 99.5% × 0.5µs, 0.5% × 500µs.
func Section2Bimodal() *Workload {
	return New("Section2Bimodal", []ClassInfo{
		{Name: "Short", Service: sim.Micros(0.5), Ratio: 0.995},
		{Name: "Long", Service: sim.Micros(500), Ratio: 0.005},
	})
}

// HighBimodal is Table 1's High Bimodal workload: 50% × 1µs, 50% ×
// 100µs.
func HighBimodal() *Workload {
	return New("HighBimodal", []ClassInfo{
		{Name: "Short", Service: sim.Micros(1), Ratio: 0.5},
		{Name: "Long", Service: sim.Micros(100), Ratio: 0.5},
	})
}

// TPCC is Table 1's TPC-C transaction mix.
func TPCC() *Workload {
	return New("TPCC", []ClassInfo{
		{Name: "Payment", Service: sim.Micros(5.7), Ratio: 0.44},
		{Name: "OrderStatus", Service: sim.Micros(6), Ratio: 0.04},
		{Name: "NewOrder", Service: sim.Micros(20), Ratio: 0.44},
		{Name: "Delivery", Service: sim.Micros(88), Ratio: 0.04},
		{Name: "StockLevel", Service: sim.Micros(100), Ratio: 0.04},
	})
}

// Exp1 is Table 1's exponential workload with a 1µs mean.
func Exp1() *Workload {
	return New("Exp1", []ClassInfo{{
		Name:    "Exp",
		Service: sim.Micros(1),
		Ratio:   1,
		Sampler: expSampler{sim.Micros(1)},
	}})
}

// RocksDB returns Table 1's RocksDB workload with the given SCAN
// fraction (the paper evaluates 0.005 and 0.5): GET 1.2µs, SCAN 675µs.
func RocksDB(scanRatio float64) *Workload {
	if scanRatio <= 0 || scanRatio >= 1 {
		panic("workload: scanRatio must be in (0, 1)")
	}
	return New(fmt.Sprintf("RocksDB(%g%%SCAN)", scanRatio*100), []ClassInfo{
		{Name: "GET", Service: sim.Micros(1.2), Ratio: 1 - scanRatio},
		{Name: "SCAN", Service: sim.Micros(675), Ratio: scanRatio},
	})
}

// Fixed returns a single-class workload where every request needs
// exactly service time s; Figure 16's dispatcher-scalability experiment
// uses Fixed(1ms).
func Fixed(name string, s sim.Time) *Workload {
	return New(name, []ClassInfo{{Name: name, Service: s, Ratio: 1}})
}

// Bimodal builds a two-class workload: shortRatio of requests take
// short, the rest take long — the generic form of the paper's bimodal
// mixes for custom experiments.
func Bimodal(name string, short, long sim.Time, shortRatio float64) *Workload {
	if shortRatio <= 0 || shortRatio >= 1 {
		panic("workload: shortRatio must be in (0, 1)")
	}
	return New(name, []ClassInfo{
		{Name: "Short", Service: short, Ratio: shortRatio},
		{Name: "Long", Service: long, Ratio: 1 - shortRatio},
	})
}

// FromTrace builds an empirical single-class workload that samples
// service times uniformly from the given trace of observed durations —
// for replaying measured service-time distributions through the
// simulators. The trace must be non-empty with positive durations; the
// class's display Service (and MeanService) is the empirical mean.
func FromTrace(name string, trace []sim.Time) *Workload {
	return New(name, []ClassInfo{{
		Name:    name,
		Ratio:   1,
		Sampler: newTraceSampler(trace),
	}})
}

// All returns the Table 1 workloads in presentation order.
func All() []*Workload {
	return []*Workload{
		ExtremeBimodal(), HighBimodal(), TPCC(), Exp1(),
		RocksDB(0.005), RocksDB(0.5),
	}
}
