package rack

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fleet suite mirrors the cluster conformance suite one level up:
// every routing policy gets the kernel invariants checked over a sample
// of registry machines — conservation fleet-wide, run-twice
// determinism, grammatical timelines — with no hand-written per-policy
// test.

// machineSample covers the three admission shapes: multi-dispatcher
// bounded lanes (tq), one serial bounded stage (shinjuku), and
// per-worker NIC lanes (d-fcfs).
var machineSample = []string{"tq", "shinjuku", "d-fcfs"}

const testFleetSize = 4

// fleetConfigs exercises both regimes at fleet scale: rates are per
// aggregate fleet capacity (testFleetSize machines × 16 workers).
func fleetConfigs() map[string]cluster.RunConfig {
	hb := workload.HighBimodal()
	return map[string]cluster.RunConfig{
		"midload": {
			Workload: hb,
			Rate:     0.7 * hb.MaxLoad(16*testFleetSize),
			Duration: 5 * sim.Millisecond,
			Warmup:   500 * sim.Microsecond,
			Seed:     7,
		},
		"overload": {
			Workload: hb,
			Rate:     1.3 * hb.MaxLoad(16*testFleetSize),
			Duration: 2 * sim.Millisecond,
			Warmup:   200 * sim.Microsecond,
			Seed:     7,
		},
	}
}

// classSummary and resultSummary reduce a Result to comparable values
// (samples become their tail quantiles) for determinism checks.
type classSummary struct {
	Name        string
	Count, Good uint64
	P99, P999   float64
}

type resultSummary struct {
	System                      string
	Completed, Offered, Dropped uint64
	Throughput, Goodput         float64
	Classes                     []classSummary
}

func summarize(r *cluster.Result) resultSummary {
	s := resultSummary{
		System:     r.System,
		Completed:  r.Completed,
		Offered:    r.Offered,
		Dropped:    r.Dropped,
		Throughput: r.Throughput,
		Goodput:    r.Goodput,
	}
	for i := range r.PerClass {
		c := &r.PerClass[i]
		cs := classSummary{Name: c.Name, Count: c.Count, Good: c.Good}
		if c.Count > 0 {
			cs.P99 = c.Sojourn.P99()
			cs.P999 = c.Sojourn.P999()
		}
		s.Classes = append(s.Classes, cs)
	}
	return s
}

// TestFleetConformance checks, for every routing policy × sampled
// machine × regime:
//
//   - fleet-wide conservation: Fleet.Offered == Fleet.Completed +
//     Fleet.Dropped, and the fleet counts equal the per-machine sums;
//   - per-machine conservation (each node keeps the kernel's law);
//   - run-twice determinism: a fresh Fleet on the same config
//     reproduces every number bit for bit.
func TestFleetConformance(t *testing.T) {
	for _, policy := range RouterNames() {
		for _, machine := range machineSample {
			for cfgName, cfg := range fleetConfigs() {
				f := Fleet{N: testFleetSize, Machine: machine, Policy: policy}
				t.Run(policy+"/"+machine+"/"+cfgName, func(t *testing.T) {
					t.Parallel()
					res := f.RunFleet(cfg)
					fl := res.Fleet
					if fl.Offered != fl.Completed+fl.Dropped {
						t.Errorf("fleet conservation violated: offered %d != completed %d + dropped %d",
							fl.Offered, fl.Completed, fl.Dropped)
					}
					var offered, completed, dropped, placed uint64
					for i, r := range res.PerMachine {
						if r.Offered != r.Completed+r.Dropped {
							t.Errorf("machine %d conservation violated: offered %d != completed %d + dropped %d",
								i, r.Offered, r.Completed, r.Dropped)
						}
						offered += r.Offered
						completed += r.Completed
						dropped += r.Dropped
						placed += res.Placed[i]
					}
					if fl.Offered != offered || fl.Completed != completed || fl.Dropped != dropped {
						t.Errorf("fleet counts %d/%d/%d differ from per-machine sums %d/%d/%d",
							fl.Offered, fl.Completed, fl.Dropped, offered, completed, dropped)
					}
					if placed == 0 {
						t.Error("router placed no requests")
					}
					if fl.Events == 0 {
						t.Error("fleet executed no events")
					}
					again := Fleet{N: testFleetSize, Machine: machine, Policy: policy}.RunFleet(cfg)
					if !reflect.DeepEqual(summarize(fl), summarize(again.Fleet)) {
						t.Errorf("run-twice mismatch:\nfirst:  %+v\nsecond: %+v",
							summarize(fl), summarize(again.Fleet))
					}
					if !reflect.DeepEqual(res.Placed, again.Placed) {
						t.Errorf("run-twice placement mismatch:\nfirst:  %v\nsecond: %v",
							res.Placed, again.Placed)
					}
				})
			}
		}
	}
}

// TestFleetSweepWorkerInvariance pins the acceptance property that a
// rack sweep — one cluster.Plan curve per fleet variant — reproduces
// identical results for any worker count.
func TestFleetSweepWorkerInvariance(t *testing.T) {
	w := workload.HighBimodal()
	rates := cluster.RatesUpTo(1.2*w.MaxLoad(16*testFleetSize), 3)
	variants := Variants([]string{"random", "sew"}, []string{"tq"}, []int{testFleetSize})
	template := cluster.RunConfig{Workload: w, Duration: 2 * sim.Millisecond, Warmup: 200 * sim.Microsecond, Seed: 11}
	var base []*cluster.Curve
	for _, workers := range []int{1, 4} {
		plan := cluster.NewPlan(cluster.SweepOptions{Workers: workers})
		got := make([]*cluster.Curve, len(variants))
		for i, v := range variants {
			fleet := v.Fleet()
			got[i] = plan.Sweep(func() cluster.Machine { return fleet }, template, rates)
		}
		plan.Run()
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			for j := range got[i].Results {
				if !reflect.DeepEqual(summarize(base[i].Results[j]), summarize(got[i].Results[j])) {
					t.Fatalf("variant %v point %d differs between worker counts", variants[i], j)
				}
			}
		}
	}
}

// TestFleetSharedTimeline checks the machine dimension of a shared
// recorder: the fleet's one timeline must satisfy the obs grammar and
// conservation, with each machine's worker cores in its own
// MachineCoreStride band.
func TestFleetSharedTimeline(t *testing.T) {
	cfg := fleetConfigs()["midload"]
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	rec := obs.NewRing(1 << 21)
	cfg.Obs = rec
	Fleet{N: testFleetSize, Machine: "tq", Policy: "rr"}.RunFleet(cfg)
	if rec.Truncated() {
		t.Fatalf("recorder truncated (%d discarded); raise the test cap", rec.Discarded())
	}
	if err := obs.Validate(rec.Events()); err != nil {
		t.Errorf("shared timeline grammar: %v", err)
	}
	if err := obs.Conserved(rec.Events()); err != nil {
		t.Errorf("shared timeline conservation: %v", err)
	}
	bands := map[int32]bool{}
	for _, e := range rec.Events() {
		if e.Core >= 0 {
			bands[e.Core/MachineCoreStride] = true
		}
	}
	if len(bands) != testFleetSize {
		t.Errorf("worker events span %d machine bands, want %d (round-robin touches every machine)",
			len(bands), testFleetSize)
	}
}

// TestFleetTrace checks the per-machine process form: one validated
// obs.Process per machine, each distinctly named.
func TestFleetTrace(t *testing.T) {
	cfg := fleetConfigs()["midload"]
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	procs, err := Fleet{N: testFleetSize, Machine: "tq", Policy: "p2c"}.Trace(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != testFleetSize {
		t.Fatalf("%d processes for %d machines", len(procs), testFleetSize)
	}
	seen := map[string]bool{}
	for i, p := range procs {
		if p.Name == "" || seen[p.Name] {
			t.Errorf("process %d: empty or duplicate name %q", i, p.Name)
		}
		seen[p.Name] = true
		if len(p.Events) == 0 {
			t.Errorf("process %d (%s): no events", i, p.Name)
		}
	}
}

// TestRoundRobinPlacementIsEven pins rr's defining property: placement
// counts differ by at most one across machines.
func TestRoundRobinPlacementIsEven(t *testing.T) {
	cfg := fleetConfigs()["midload"]
	res := Fleet{N: testFleetSize, Machine: "tq", Policy: "rr"}.RunFleet(cfg)
	min, max := res.Placed[0], res.Placed[0]
	for _, p := range res.Placed[1:] {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max-min > 1 {
		t.Fatalf("round-robin placement spread %v", res.Placed)
	}
}

// TestRSSPlacementIsSticky pins rss's defining property: equal request
// IDs land on equal machines regardless of load.
func TestRSSPlacementIsSticky(t *testing.T) {
	rt, err := NewRouter("rss", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	v := staticView{n: 8, backlog: []int{9, 0, 3, 5, 1, 7, 2, 4}}
	for id := uint64(0); id < 64; id++ {
		req := workload.Request{ID: id}
		first := rt.Route(req, v)
		if again := rt.Route(req, v); again != first {
			t.Fatalf("request %d routed to %d then %d", id, first, again)
		}
	}
}

// TestRoutersStayInRange drives every policy over a skewed static view
// and checks indices stay in range and load-aware policies prefer the
// emptier machine.
func TestRoutersStayInRange(t *testing.T) {
	v := staticView{n: 4, backlog: []int{50, 0, 50, 50}}
	for _, name := range RouterNames() {
		rt, err := NewRouter(name, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name {
			t.Errorf("router %q reports name %q", name, rt.Name())
		}
		counts := make([]int, v.n)
		for id := uint64(0); id < 256; id++ {
			m := rt.Route(workload.Request{ID: id}, v)
			if m < 0 || m >= v.n {
				t.Fatalf("%s routed to %d of %d", name, m, v.n)
			}
			counts[m]++
		}
		switch name {
		case "least", "sew":
			if counts[1] != 256 {
				t.Errorf("%s sent %v to a statically skewed fleet; want everything on machine 1", name, counts)
			}
		case "p2c":
			if counts[1] < 64 {
				t.Errorf("p2c sent only %d/256 to the empty machine", counts[1])
			}
		}
	}
}

// TestNewRouterUnknown checks the error path names the catalogue.
func TestNewRouterUnknown(t *testing.T) {
	_, err := NewRouter("jsq", rng.New(1))
	if err == nil {
		t.Fatal("unknown policy did not error")
	}
	if !strings.Contains(err.Error(), "sew") {
		t.Errorf("error %q does not list known policies", err)
	}
}

// staticView is a fixed-backlog View for router unit tests.
type staticView struct {
	n       int
	backlog []int
}

func (v staticView) Machines() int     { return v.n }
func (v staticView) Backlog(m int) int { return v.backlog[m] }
func (v staticView) Workers(int) int   { return 16 }
