package cluster

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every standalone Run takes its run struct from its family's runPool
// and puts it back when the Result is built (kernel.go). These tests
// hold the recycling to its contract: a run on a recycled struct is bit
// for bit the run a fresh struct makes, whatever the struct ran before;
// a pooled struct pins nothing its last caller dropped; and a recycled
// run allocates what its Result owns and little else
// (TestRecycledRunAllocs, with the other allocation guards).

// holdPools keeps what a run puts back in a pool where the next run
// takes it, for the rest of the test: the collector, which empties
// pools, is paused, and the test runs on one P, so a Put and the next
// Get meet in the same per-P slot. Race builds still drop pooled structs
// at random; there a recycled run is likely, not certain.
func holdPools(t *testing.T) {
	t.Helper()
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// emptyPools drops every pooled run struct — a sync.Pool's contents
// survive one collection in its victim cache, not two — so the next run
// builds its struct fresh.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// recycleVariants are parameterizations beside the registry's that a
// recycled struct must also survive: fewer workers (a slice re-made on
// the way back up, whose callbacks must be bound again) and more
// dispatcher lanes.
var recycleVariants = map[string]func() Machine{
	"tq-4disp-8w": func() Machine {
		p := NewTQParams()
		p.Dispatchers, p.Workers = 4, 8
		return NewTQ(p)
	},
	"shinjuku-4w": func() Machine {
		p := NewShinjukuParams(sim.Micros(5))
		p.Workers = 4
		return NewShinjuku(p)
	},
	"caladan-4w": func() Machine {
		p := NewCaladanParams(IOKernel)
		p.Workers = 4
		return NewCaladan(p)
	},
	"ct-ps-4w": func() Machine { return NewCentralizedPS(4, sim.Micros(2), 0) },
	"d-fcfs-4w": func() Machine {
		p := NewDFCFSParams()
		p.Workers = 4
		return NewDFCFS(p)
	},
	"oracle-4w": func() Machine { return NewOracle(4) },
}

// recycleSubject builds a registry entry at its zero Options, a
// recycleVariants entry, or the sink.
func recycleSubject(name string) Machine {
	if name == "sink" {
		return NewSink()
	}
	if v, ok := recycleVariants[name]; ok {
		return v()
	}
	return MustLookup(name).Build(Options{})
}

// namedRun is one configuration a recycling test runs.
type namedRun struct {
	name string
	cfg  RunConfig
}

// hostileRuns are the runs A that leave a struct in its pool in every
// state a finished run can: RX rings overflowing past the knee, tenant
// shares partitioning them, a closed loop's retirement hook chained
// into the job pool, an obs recorder attached.
func hostileRuns() []namedRun {
	hb := workload.HighBimodal()
	base := RunConfig{Workload: hb, Duration: 3 * sim.Millisecond, Warmup: 300 * sim.Microsecond, Seed: 11}
	overload := base
	overload.Workload, overload.Rate, overload.Duration = workload.Fixed("tiny", 100*sim.Nanosecond), 30e6, sim.Millisecond
	tenants := base
	tenants.Rate = 1.5 * hb.MaxLoad(16)
	tenants.Tenants = []workload.Tenant{{Name: "noisy", Ratio: 0.8}, {Name: "quiet", Ratio: 0.2, Share: 0.3}}
	closed := base
	closed.Rate, closed.Arrivals = 1, "closed:users=48,think=2us"
	traced := base
	traced.Rate, traced.Obs = 0.7*hb.MaxLoad(16), obs.NewRing(1<<12)
	return []namedRun{{"overload", overload}, {"tenants", tenants}, {"closed", closed}, {"traced", traced}}
}

// followUps are the runs B compared on a recycled struct and on a fresh
// one: open loop at 60% load, and a closed loop — where a retirement
// hook leaked from a closed-loop run A would retire every request twice.
func followUps() []namedRun {
	hb := workload.HighBimodal()
	open := RunConfig{Workload: hb, Rate: 0.6 * hb.MaxLoad(16), Duration: 3 * sim.Millisecond, Warmup: 300 * sim.Microsecond, Seed: 5}
	closed := open
	closed.Rate, closed.Arrivals, closed.Seed = 1, "closed:users=32,think=10us", 9
	return []namedRun{{"open", open}, {"closed", closed}}
}

// TestMachineRunTwiceMatchesFreshMachine: for every registry entry and
// the sink, and for pairs of one family's machines that differ in
// parameters, a run B on the struct a hostile run A just put back must
// equal B on a fresh struct under reflect.DeepEqual. Within an entry
// one Machine value makes every run, so reusing a machine value is
// covered too.
func TestMachineRunTwiceMatchesFreshMachine(t *testing.T) {
	holdPools(t)
	check := func(aName, bName string) {
		t.Helper()
		a, b := recycleSubject(aName), recycleSubject(bName)
		for _, fu := range followUps() {
			emptyPools()
			want := b.Run(fu.cfg)
			for _, h := range hostileRuns() {
				a.Run(h.cfg)
				if got := b.Run(fu.cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s after %s %s: the run on a recycled struct differs from a fresh struct's\nrecycled: %v\nfresh:    %v",
						bName+" "+fu.name, aName, h.name, got, want)
				}
			}
		}
	}
	for _, name := range append(Names(), "sink") {
		check(name, name)
	}
	for _, p := range [][2]string{
		{"tq", "tq-fcfs"}, {"tq", "tq-power-two"}, {"tq", "tls-jsq-rand"}, {"tq", "tq-4disp-8w"},
		{"shinjuku", "concord"}, {"shinjuku", "shinjuku-4w"},
		{"caladan-iokernel", "caladan-directpath"}, {"caladan-directpath", "caladan-4w"},
		{"ct-ps", "ct-ps-4w"}, {"d-fcfs", "d-fcfs-4w"}, {"oracle-srpt", "oracle-4w"},
	} {
		check(p[0], p[1])
		check(p[1], p[0])
	}
}

// TestRecycledRunsRaceOnPlanWorkers runs hostile and follow-up runs of
// every entry twice over on four Plan workers, so structs pass between
// goroutines through the pools while runs of the same family are in
// flight; every Result must still equal its run on a fresh struct.
// Under -race it is the pools' data-race check.
func TestRecycledRunsRaceOnPlanWorkers(t *testing.T) {
	type point struct {
		machine string
		cfg     RunConfig
	}
	var pts []point
	for _, name := range append(Names(), "sink") {
		for _, r := range append(hostileRuns()[:3], followUps()...) {
			pts = append(pts, point{name, r.cfg})
		}
	}
	want := make([]*Result, len(pts))
	for i, p := range pts {
		emptyPools()
		want[i] = recycleSubject(p.machine).Run(p.cfg)
	}
	cfgs := make([]RunConfig, 2*len(pts))
	for i := range cfgs {
		cfgs[i] = pts[i%len(pts)].cfg
	}
	plan := NewPlan(SweepOptions{Workers: 4})
	curve := plan.Points(cfgs, func(i int, cfg RunConfig) *Result {
		return recycleSubject(pts[i%len(pts)].machine).Run(cfg)
	})
	plan.Run()
	for i, res := range curve.Results {
		if p := pts[i%len(pts)]; !reflect.DeepEqual(res, want[i%len(pts)]) {
			t.Errorf("%s at rate %g (%q): the run on a pool worker differs from the run on a fresh struct",
				p.machine, p.cfg.Rate, p.cfg.Arrivals)
		}
	}
}

// TestPooledRunPinsNothing: with a family's struct back in its pool
// (here taken out and held, which pins at least as much), the obs
// recorder a caller gave the run and the Result it got back must be
// collectable once the caller drops them. The run is closed-loop,
// tenanted and traced, so every hook release must drop is set.
func TestPooledRunPinsNothing(t *testing.T) {
	holdPools(t)
	for _, f := range []struct {
		m    Machine
		take func() *machineRun
	}{
		{NewTQ(NewTQParams()), func() *machineRun { return &tqRuns.get().machineRun }},
		{NewShinjuku(NewShinjukuParams(sim.Micros(5))), func() *machineRun { return &sjRuns.get().machineRun }},
		{NewCaladan(NewCaladanParams(IOKernel)), func() *machineRun { return &calRuns.get().machineRun }},
		{NewCentralizedPS(16, sim.Micros(2), 0), func() *machineRun { return &ctRuns.get().machineRun }},
		{NewDFCFS(NewDFCFSParams()), func() *machineRun { return &dfRuns.get().machineRun }},
		{NewOracle(16), func() *machineRun { return &oracleRuns.get().machineRun }},
		{NewSink(), func() *machineRun { return &sinkRuns.get().machineRun }},
	} {
		emptyPools()
		ring, res := runAndDrop(f.m)
		k := f.take()
		if k.eng == nil || k.eng.Executed() == 0 {
			if raceEnabled {
				continue // race builds drop pooled structs at random
			}
			t.Fatalf("%s: the pool did not hand back the finished run's struct", f.m.Name())
		}
		waitCollected(t, res, f.m.Name()+": Result")
		waitCollected(t, ring, f.m.Name()+": obs recorder")
		runtime.KeepAlive(k)
	}
}

// TestOverloadedRunIsNotPooled: a run whose backlog outgrew maxPooledJobs
// leaves its struct to the collector, while a run at half load is
// pooled. The oracle has no RX bound, so at three times its capacity the
// backlog grows with the run, past 64 Ki jobs in 40 ms.
func TestOverloadedRunIsNotPooled(t *testing.T) {
	holdPools(t)
	w := workload.Fixed("unit", 10*sim.Microsecond)
	for _, c := range []struct {
		load   float64
		pooled bool
	}{{0.5, true}, {3, false}} {
		if c.pooled && raceEnabled {
			continue // race builds drop pooled structs at random
		}
		emptyPools()
		NewOracle(16).Run(RunConfig{Workload: w, Rate: c.load * w.MaxLoad(16), Duration: 40 * sim.Millisecond, Warmup: 4 * sim.Millisecond, Seed: 1})
		if r := oracleRuns.get(); (r.eng != nil) != c.pooled {
			t.Errorf("at %gx load the run kept %d free jobs: pooled %v, want %v", c.load, len(r.pool.free), r.eng != nil, c.pooled)
		}
	}
}

// runAndDrop makes one closed-loop, tenanted, traced run of m and
// returns channels closed when its recorder and its Result are
// collected. It is its own function so no frame of the test holds
// either.
func runAndDrop(m Machine) (ring, res chan struct{}) {
	ring, res = make(chan struct{}), make(chan struct{})
	rec := obs.NewRing(1 << 10)
	runtime.SetFinalizer(rec, func(*obs.Ring) { close(ring) })
	r := m.Run(RunConfig{
		Workload: workload.HighBimodal(),
		Rate:     1,
		Arrivals: "closed:users=16,think=5us",
		Tenants:  []workload.Tenant{{Name: "a", Ratio: 0.5, Share: 0.5}, {Name: "b", Ratio: 0.5}},
		Duration: sim.Millisecond,
		Warmup:   100 * sim.Microsecond,
		Seed:     3,
		Obs:      rec,
	})
	runtime.SetFinalizer(r, func(*Result) { close(res) })
	return ring, res
}

// waitCollected runs collections until freed closes; the recorder is
// reachable from the Result, so it goes one finalizer cycle later.
func waitCollected(t *testing.T, freed chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatalf("%s: still reachable with the run's struct pooled", what)
}
