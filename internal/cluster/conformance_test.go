package cluster

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The conformance suite is registration-driven: every machine that
// enters the catalogue gets these checks for free, with no hand-written
// per-machine test. It asserts, for each registered entry, the
// invariants the kernel is supposed to guarantee by construction —
// conservation, determinism, and a grammatical obs timeline.

// conformanceConfigs exercises both regimes: a mid-load run where
// every scheduling path fires, and an overload run where the bounded
// RX rings shed load (the conservation law's interesting case).
func conformanceConfigs() map[string]RunConfig {
	hb := workload.HighBimodal()
	return map[string]RunConfig{
		"midload": {
			Workload: hb,
			Rate:     0.7 * hb.MaxLoad(16),
			Duration: 10 * sim.Millisecond,
			Warmup:   sim.Millisecond,
			Seed:     7,
		},
		"overload": {
			Workload: workload.Fixed("tiny", 100*sim.Nanosecond),
			Rate:     30e6,
			Duration: sim.Millisecond,
			Warmup:   100 * sim.Microsecond,
			Seed:     7,
		},
	}
}

// TestRegistryConformance checks the kernel invariants for every
// registered machine, in both regimes:
//
//   - the conservation law Offered == Completed + Dropped;
//   - run-twice determinism: a fresh machine on the same config
//     reproduces every number bit for bit;
//   - a Validate-clean, Conserved-clean obs timeline.
func TestRegistryConformance(t *testing.T) {
	for _, name := range Names() {
		e := MustLookup(name)
		for cfgName, cfg := range conformanceConfigs() {
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				t.Parallel()
				m := e.Build(Options{})
				if m.Name() == "" {
					t.Fatal("machine has empty display name")
				}
				res := m.Run(cfg)
				if res.Offered != res.Completed+res.Dropped {
					t.Errorf("conservation violated: offered %d != completed %d + dropped %d",
						res.Offered, res.Completed, res.Dropped)
				}
				again := summarize(e.Build(Options{}).Run(cfg))
				if !reflect.DeepEqual(summarize(res), again) {
					t.Errorf("run-twice mismatch: fresh machine produced different numbers\nfirst:  %+v\nsecond: %+v",
						summarize(res), again)
				}
			})
		}
	}
}

// TestRegistryTimelines records every registered machine's obs
// timeline on the mid-load config and checks it against the shared
// event grammar — new machines cannot ship a vocabulary the tooling
// can't parse.
func TestRegistryTimelines(t *testing.T) {
	cfg := conformanceConfigs()["midload"]
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	for _, name := range Names() {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := obs.NewRing(1 << 21)
			c := cfg
			c.Obs = rec
			e.Build(Options{}).Run(c)
			if rec.Truncated() {
				t.Fatalf("recorder truncated (%d discarded); raise the test cap", rec.Discarded())
			}
			if rec.Len() == 0 {
				t.Fatal("machine emitted no obs events")
			}
			if err := obs.Validate(rec.Events()); err != nil {
				t.Errorf("timeline grammar: %v", err)
			}
			if err := obs.Conserved(rec.Events()); err != nil {
				t.Errorf("timeline conservation: %v", err)
			}
		})
	}
}

// TestRegistryDropCores pins the drop-attribution vocabulary: a drop
// lands on the obs track of the core that owns the overflowed RX ring.
// Machines with a central bounded stage (TQ's dispatcher rings,
// Shinjuku's packet core, Caladan's IOKernel) book every drop on the
// dispatcher track; machines whose RX lanes are per-worker NIC queues
// (d-FCFS) book each drop on the owning worker's track — the kernel
// used to hard-code the dispatcher for all of them, mislabelling
// per-worker losses. Machines with unbounded gates never drop.
func TestRegistryDropCores(t *testing.T) {
	cfg := conformanceConfigs()["overload"]
	// Push hard enough that even 16 per-worker lanes each saturate
	// (d-FCFS serves ≈2.8Mrps per worker at 360ns/request).
	cfg.Rate = 80e6
	perWorkerLanes := map[string]bool{"d-fcfs": true}
	for _, name := range Names() {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := obs.NewRing(1 << 22)
			c := cfg
			c.Obs = rec
			res := e.Build(Options{}).Run(c)
			if rec.Truncated() {
				t.Fatalf("recorder truncated (%d discarded); raise the test cap", rec.Discarded())
			}
			cores := map[int32]uint64{}
			var drops uint64
			for _, ev := range rec.Events() {
				if ev.Kind == obs.Drop {
					cores[ev.Core]++
					drops++
				}
			}
			if res.Dropped == 0 {
				if drops != 0 {
					t.Fatalf("%d drop events but Result.Dropped == 0", drops)
				}
				return // unbounded gate: nothing to attribute
			}
			if drops == 0 {
				t.Fatalf("Result.Dropped == %d but no drop events recorded", res.Dropped)
			}
			if perWorkerLanes[name] {
				for core := range cores {
					if core < 0 {
						t.Errorf("per-worker-lane machine dropped on pseudo-core %d; want a worker track", core)
					}
				}
				if len(cores) < 2 {
					t.Errorf("per-worker-lane drops all landed on one core; want RSS to spread them")
				}
				return
			}
			for core, n := range cores {
				if core != obs.CoreDispatcher {
					t.Errorf("%d central-stage drops on core %d; want CoreDispatcher (%d)",
						n, core, obs.CoreDispatcher)
				}
			}
		})
	}
}

// TestRegistryNewD checks the discipline dimension: every entry taking
// a discipline builds a runnable machine under every pifo discipline,
// the conservation law holds, and the display name carries the
// discipline suffix so sweeps stay distinguishable.
func TestRegistryNewD(t *testing.T) {
	cfg := conformanceConfigs()["midload"]
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	// Give EDF real deadlines to order by (without SLOs it degenerates
	// to FCFS, which the pifo package documents but this test need not
	// rely on).
	cfg.SLOs = map[string]sim.Time{"*": sim.Micros(100)}
	for _, name := range Names() {
		e := MustLookup(name)
		if !e.TakesDiscipline {
			continue
		}
		for _, d := range pifo.Names() {
			t.Run(name+"/"+d, func(t *testing.T) {
				t.Parallel()
				m := e.Build(Options{Discipline: d})
				if base := e.Build(Options{}).Name(); m.Name() == base {
					t.Errorf("disciplined machine reports the base name %q; want a +%s suffix", base, d)
				}
				res := m.Run(cfg)
				if res.Offered == 0 {
					t.Error("discipline-parameterized machine resolved no requests")
				}
				if res.Offered != res.Completed+res.Dropped {
					t.Errorf("conservation violated: offered %d != completed %d + dropped %d",
						res.Offered, res.Completed, res.Dropped)
				}
			})
		}
	}
}

// TestRegistryNewQ checks that every entry taking a quantum builds a
// runnable machine under one.
func TestRegistryNewQ(t *testing.T) {
	cfg := conformanceConfigs()["midload"]
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	for _, name := range Names() {
		e := MustLookup(name)
		if !e.TakesQuantum {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := e.Build(Options{Quantum: sim.Micros(4)}).Run(cfg)
			if res.Offered == 0 {
				t.Error("quantum-parameterized machine resolved no requests")
			}
		})
	}
}

// handBuilt is every registry entry written out with the typed
// constructors: q is the entry's default quantum (0 = no quantum knob), d
// whether it takes a discipline, and build the machine at an explicit
// quantum and discipline — what Entry.Build must reproduce.
var handBuilt = map[string]struct {
	q     sim.Time
	d     bool
	build func(q sim.Time, d string) Machine
}{
	"tq": {sim.Micros(2), true, func(q sim.Time, d string) Machine {
		p := NewTQParams()
		p.Quantum, p.Discipline = q, d
		return NewTQ(p)
	}},
	"tq-las":        {sim.Micros(2), false, func(q sim.Time, _ string) Machine { return NewTQLAS(tqAt(q)) }},
	"tq-ic":         {sim.Micros(2), false, func(q sim.Time, _ string) Machine { return NewTQIC(tqAt(q)) }},
	"tq-slow-yield": {sim.Micros(2), false, func(q sim.Time, _ string) Machine { return NewTQSlowYield(tqAt(q)) }},
	"tq-timing":     {0, false, func(sim.Time, string) Machine { return NewTQTiming(NewTQParams()) }},
	"tq-rand":       {0, false, func(sim.Time, string) Machine { return NewTQRand(NewTQParams()) }},
	"tq-power-two":  {0, false, func(sim.Time, string) Machine { return NewTQPowerTwo(NewTQParams()) }},
	"tq-fcfs":       {0, false, func(sim.Time, string) Machine { return NewTQFCFS(NewTQParams()) }},
	"shinjuku":      {sim.Micros(5), false, func(q sim.Time, _ string) Machine { return NewShinjuku(NewShinjukuParams(q)) }},
	"concord":       {sim.Micros(5), false, func(q sim.Time, _ string) Machine { return NewConcord(q) }},
	"libpreemptible": {sim.Micros(2), false, func(q sim.Time, _ string) Machine {
		return NewLibPreemptible(tqAt(q))
	}},
	"caladan-iokernel":   {0, false, func(sim.Time, string) Machine { return NewCaladan(NewCaladanParams(IOKernel)) }},
	"caladan-directpath": {0, false, func(sim.Time, string) Machine { return NewCaladan(NewCaladanParams(Directpath)) }},
	"caladan-ws":         {0, false, func(sim.Time, string) Machine { return NewBestCaladan("") }},
	"ct-ps": {sim.Micros(2), true, func(q sim.Time, d string) Machine {
		return &CentralizedPS{Workers: 16, Quantum: q, Discipline: d}
	}},
	"tls-jsq-msq":  {sim.Micros(1), true, func(q sim.Time, d string) Machine { return tlsAt(q, BalanceJSQMSQ, "TLS-JSQ-PS-MSQ", d) }},
	"tls-jsq-rand": {sim.Micros(1), true, func(q sim.Time, d string) Machine { return tlsAt(q, BalanceJSQRandom, "TLS-JSQ-PS-RAND-TIE", d) }},
	"d-fcfs": {0, true, func(_ sim.Time, d string) Machine {
		p := NewDFCFSParams()
		p.Discipline = d
		return NewDFCFS(p)
	}},
	"oracle-srpt": {0, false, func(sim.Time, string) Machine { return NewOracle(16) }},
}

func tqAt(q sim.Time) TQParams {
	p := NewTQParams()
	p.Quantum = q
	return p
}

func tlsAt(q sim.Time, balancer BalancerKind, name, d string) Machine {
	p := NewIdealTLS(16, q, balancer).P
	p.Discipline = d
	if d != "" {
		name += "+" + d
	}
	return NewTQ(p).Named(name)
}

// TestRegistryBuildOptions crosses every entry with every combination of
// the two options. Where the entry takes what is asked, Build's machine
// must equal the hand-built one — name and, bit for bit, one short run;
// where it does not, Check's error must name the entry and the knob, and
// Build must refuse too.
func TestRegistryBuildOptions(t *testing.T) {
	cfg := conformanceConfigs()["midload"]
	cfg.Duration = sim.Millisecond
	cfg.Warmup = 100 * sim.Microsecond
	for _, name := range Names() {
		e := MustLookup(name)
		hand, ok := handBuilt[name]
		if !ok {
			t.Errorf("%s: registered but missing from handBuilt", name)
			continue
		}
		if e.TakesQuantum != (hand.q != 0) || e.TakesDiscipline != hand.d {
			t.Errorf("%s: takes quantum %v discipline %v, want %v %v", name, e.TakesQuantum, e.TakesDiscipline, hand.q != 0, hand.d)
		}
		for combo, o := range map[string]Options{
			"zero":       {},
			"quantum":    {Quantum: sim.Micros(4)},
			"discipline": {Discipline: "las"},
			"both":       {Quantum: sim.Micros(4), Discipline: "las"},
		} {
			t.Run(name+"/"+combo, func(t *testing.T) {
				t.Parallel()
				knob := ""
				switch {
				case o.Quantum != 0 && hand.q == 0:
					knob = "quantum"
				case o.Discipline != "" && !hand.d:
					knob = "discipline"
				}
				err := e.Check(o)
				if knob != "" {
					if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) || !strings.Contains(err.Error(), knob) {
						t.Fatalf("Check = %v, want an error naming %q and its missing %s knob", err, name, knob)
					}
					defer func() {
						if recover() == nil {
							t.Error("Build accepted options Check refuses")
						}
					}()
					e.Build(o)
					return
				}
				if err != nil {
					t.Fatalf("Check refused options the entry takes: %v", err)
				}
				want := hand.build(o.quantum(hand.q), o.Discipline)
				got := e.Build(o)
				if got.Name() != want.Name() {
					t.Errorf("built %q, hand-built %q", got.Name(), want.Name())
				}
				res := got.Run(cfg)
				if res.Completed == 0 {
					t.Fatal("the run completed nothing; the comparison tests nothing")
				}
				if !reflect.DeepEqual(res, want.Run(cfg)) {
					t.Error("registry machine's run differs from the hand-built machine's")
				}
			})
		}
	}
	if err := MustLookup("tq").Check(Options{Discipline: "nope"}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown discipline: Check = %v, want an error quoting it", err)
	}
}

// TestRegistrySteadyStateAllocs is the machine-level allocation guard:
// for every registered machine, doubling a run's length must add
// (almost) no allocations — every per-event callback is bound once per
// run and every per-request record is pooled, so what a run allocates is
// set-up plus one-time growth, not a function of how many events it
// executes. The bound is on the marginal cost, Mallocs(2T) − Mallocs(T)
// over the extra events, which cancels set-up exactly; a closure per
// quantum or per request (0.58–1.23 allocs/event before the callbacks
// were bound) fails it by two orders of magnitude. Not parallel: it
// reads the process-wide malloc counter.
func TestRegistrySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc guarantee is for production builds")
	}
	// 40% load keeps every variant stable (TQ-SLOW-YIELD saturates near
	// 55%): past saturation the backlog, and with it the job pool, grows
	// with the run — live-set growth, not per-event churn.
	eb := workload.ExtremeBimodal()
	cfg := RunConfig{
		Workload: eb,
		Rate:     0.4 * eb.MaxLoad(16),
		Duration: 20 * sim.Millisecond,
		Warmup:   sim.Millisecond,
		Seed:     7,
	}
	measure := func(e Entry, d sim.Time) (mallocs, events uint64) {
		c := cfg
		c.Duration = d
		m := e.Build(Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := m.Run(c)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res.Events
	}
	for _, name := range Names() {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			m1, e1 := measure(e, cfg.Duration)
			m2, e2 := measure(e, 2*cfg.Duration)
			if e2 <= e1 {
				t.Fatalf("doubling the run did not add events: %d then %d", e1, e2)
			}
			extra := float64(int64(m2) - int64(m1))
			perEvent := extra / float64(e2-e1)
			t.Logf("%d mallocs / %d events at T, %d / %d at 2T: %.5f allocs per extra event", m1, e1, m2, e2, perEvent)
			if perEvent > 0.01 {
				t.Errorf("steady state allocates %.4f times per event, want <= 0.01 (a callback literal or unpooled record on the event path?)", perEvent)
			}
		})
	}
}

// TestRecycledRunAllocs is the recycling guard: for every registered
// machine, a second run of one config, on the struct the first put back
// in its family's pool, allocates under 15 % of the first run's bytes —
// what remains is the Result's metrics and histograms, the RNG and the
// stream. Engine, job pool, queues and bound callbacks are the first
// run's. The config is a point past the knee, as a sweep's top rates
// are, where drops, backlog and job-pool growth make construction most
// of a fresh run's bytes (at 60 % load histograms are a quarter of them,
// so the bound would measure the histograms, not the recycling). Not
// parallel: it reads the process-wide allocation counter.
func TestRecycledRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and race builds drop pooled structs at random")
	}
	holdPools(t)
	hb := workload.HighBimodal()
	cfg := RunConfig{
		Workload: hb,
		Rate:     2 * hb.MaxLoad(16),
		Duration: 20 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
		Seed:     7,
	}
	measure := func(m Machine) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Run(cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, name := range Names() {
		m := MustLookup(name).Build(Options{})
		emptyPools()
		first, second := measure(m), measure(m)
		ratio := float64(second) / float64(first)
		t.Logf("%s: %d bytes fresh, %d recycled (%.1f %%)", name, first, second, 100*ratio)
		if ratio >= 0.15 {
			t.Errorf("%s: the recycled run allocated %d bytes, %.1f %% of the fresh run's %d; want < 15 %% (is the struct pooled, and its storage kept?)",
				name, second, 100*ratio, first)
		}
	}
}

// TestRunAllocBytesIndependentOfDuration is the footprint guard: what a
// run keeps is one histogram block per octave its latencies span, so a
// TQ run ten times as long allocates (within 10 %) the bytes of the
// short one. When every completion's sojourn and slowdown were kept
// until read-out the long run allocated ten times as much. Not
// parallel: it reads the process-wide allocation counter. It holds the
// pools, so both measured runs recycle the struct of a warm-up run as
// long as the longer one — already grown to either's high water —
// rather than one of them building or growing its own.
func TestRunAllocBytesIndependentOfDuration(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the footprint guarantee is for production builds")
	}
	holdPools(t)
	eb := workload.ExtremeBimodal()
	cfg := RunConfig{
		Workload: eb,
		Rate:     0.6 * eb.MaxLoad(16),
		Duration: 30 * sim.Millisecond,
		Warmup:   3 * sim.Millisecond,
		Seed:     7,
	}
	measure := func(d sim.Time) (bytes, completed uint64) {
		c := cfg
		c.Duration = d
		m := NewTQ(NewTQParams())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := m.Run(c)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, res.Completed
	}
	measure(10 * cfg.Duration) // the pooled struct exists, grown, before either count
	b1, n1 := measure(cfg.Duration)
	b10, n10 := measure(10 * cfg.Duration)
	t.Logf("%d bytes for %d completions at T, %d bytes for %d at 10T (x%.3f)", b1, n1, b10, n10, float64(b10)/float64(b1))
	if n10 < 9*n1 {
		t.Fatalf("the long run completed %d requests, the short one %d; want about ten times as many", n10, n1)
	}
	if float64(b10) > 1.10*float64(b1) {
		t.Errorf("the 10x run allocated %d bytes, the 1x run %d: x%.2f, want <= 1.10 (something is kept per completion)", b10, b1, float64(b10)/float64(b1))
	}
}

// TestSampleHintNeverTruncates runs closed loops — where think time and
// not Rate governs arrivals, so the config's Rate is at best a hint of
// how many requests will complete, here one that says almost none will
// — with and without tenants, and checks every completion still landed
// in its class's and tenant's histograms: nothing a run records into may
// be sized from the rate it was told.
func TestSampleHintNeverTruncates(t *testing.T) {
	hb := workload.HighBimodal()
	for name, cfg := range map[string]RunConfig{
		"closed-loop": {
			Workload: hb,
			Rate:     1, // informational for closed loops
			Arrivals: "closed:users=32,think=20us",
			Duration: 5 * sim.Millisecond,
			Warmup:   500 * sim.Microsecond,
			Seed:     3,
		},
		"tenants": {
			Workload: hb,
			Rate:     1,
			Arrivals: "closed:users=32,think=20us",
			Tenants:  []workload.Tenant{{Name: "a", Ratio: 0.5}, {Name: "b", Ratio: 0.5}},
			Duration: 5 * sim.Millisecond,
			Warmup:   500 * sim.Microsecond,
			Seed:     3,
		},
	} {
		t.Run(name, func(t *testing.T) {
			res := NewTQ(NewTQParams()).Run(cfg)
			if res.Completed < 1000 {
				t.Fatalf("run completed %d requests; the case tests nothing", res.Completed)
			}
			var total uint64
			for _, c := range res.PerClass {
				total += c.Count
				if int(c.Count) != c.Sojourn.Len() || int(c.Count) != c.Slowdown.Len() {
					t.Errorf("class %s: count %d but %d sojourn / %d slowdown samples", c.Name, c.Count, c.Sojourn.Len(), c.Slowdown.Len())
				}
			}
			if total != res.Completed {
				t.Errorf("class counts sum to %d, completed %d", total, res.Completed)
			}
			for _, tm := range res.PerTenant {
				if int(tm.Completed) != tm.Sojourn.Len() {
					t.Errorf("tenant %s: completed %d but %d sojourn samples", tm.Name, tm.Completed, tm.Sojourn.Len())
				}
			}
		})
	}
}
