package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a name, the reason it is in
// the set, and a set-up that turns a seed into a ready job. The program
// under test sees only what set-up generates (a RunConfig, a request
// schedule), never the seed's meaning.
type workloadDef struct {
	name, why string
	setup     func(seed uint64, quick bool) (job, error)
}

// job is a workload after set-up. run executes one repeat of the fixed
// job and times it from outside (outcome.cost); with a non-nil tracer it
// also records spans around each call into a layer.
type job interface {
	run(tr *tracer) (*outcome, error)
	close()
}

// outcome is what one repeat cost and produced.
type outcome struct {
	// cost is the fixed job's wall time, CPU and allocation: the whole
	// repeat for the sim workloads, the saturation burst for live-kv.
	cost usage
	// ops counts operations attempted (sim: one per Machine.Run; live:
	// one per due request) and failed those that failed outright.
	ops, failed int64
	// digests pin the simulated statistics of each Run of the repeat.
	digests []runDigest
	// extra carries workload-specific read-outs by metric name.
	extra map[string]float64
	// points are the sweep points of a fig7-sweep repeat.
	points []pointStat
}

// workloads is the fixed workload list, in report order.
var workloads = []workloadDef{
	{"fig7-sweep", "Figure 7 at Quick scale: three machine families x two workloads x eight rates under ParallelSweep, with drops past the knee and the percentile read-out; what a user waits for", setupFig7},
	{"tq-steady", "One serial TQ run, ExtremeBimodal at 60% load, 430 ms simulated, no obs, no drops: the DES hot loop (wheel, stream, pifo, policy, stats)", setupTQSteady},
	{"tq-traced", "The tq-steady run with an obs ring attached, then Summarize and a Chrome export: the same cluster layer writing beside reading; obs works here only", setupTQTraced},
	{"rack-fleet", "Four TQ machines behind sew routing on one engine, TPCC under MMPP bursts with two tenants: rack routing, costliest stream, tenant admission", setupRackFleet},
	{"live-kv", "UDP loopback kv server on tqrt, 0.5% SCAN: one open-loop Poisson set at a frozen 20k rps per run for latency and completeness, then closed-loop saturation bursts that wall_s, cpu_s and alloc_mb time", setupLiveKV},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tqSteadyConfig is the serial machine run shared by tq-steady,
// tq-traced and the layer ladder: ExtremeBimodal at 60 % of 16-core
// saturation. Quick runs are about 1/90 the length.
//
// The run is 430 ms of simulated time, not a round 400: at 400 ms one
// of the run's append-grown slices sits on a capacity step, so half the
// seeds allocate 427 MB and half 447 MB and alloc_mb reads as 4 % noise.
// From 420 to 460 ms every seed lands between two steps and alloc_mb
// spreads by 0.3 %.
func tqSteadyConfig(seed uint64, quick bool) cluster.RunConfig {
	ms := sim.Time(430)
	if quick {
		ms = 5
	}
	w := workload.ExtremeBimodal()
	return cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: ms * sim.Millisecond,
		Warmup:   ms * sim.Millisecond / 10,
		Seed:     seed,
	}
}

// shrink returns cfg at a tenth of its simulated length — the untimed
// warm-up every sim set-up runs so the first timed repeat does not pay
// for cold caches and heap growth.
func shrink(cfg cluster.RunConfig) cluster.RunConfig {
	cfg.Duration /= 10
	cfg.Warmup /= 10
	return cfg
}

func newTQ() cluster.Machine { return cluster.NewTQ(cluster.NewTQParams()) }

// runOne is the shared repeat body of the single-run sim workloads:
// build the machine, run it, read the percentiles out (the sort a user
// of the Result pays) and format them. post, when non-nil, runs
// between read-out and format inside the repeat span (tq-traced's obs
// post-processing).
func runOne(tr *tracer, key string, build func() cluster.Machine, cfg cluster.RunConfig, post func(root uint64)) *outcome {
	var d runDigest
	cost := observe(func() {
		root, start := tr.reserve(), nowNs()
		var m cluster.Machine
		tr.timed("build", root, func() { m = build() })
		var res *cluster.Result
		tr.timed("Machine.Run", root, func() { res = m.Run(cfg) })
		tr.timed("read-out", root, func() { d = digestOf(key, res) })
		if post != nil {
			post(root)
		}
		tr.timed("format", root, func() { _, _ = io.WriteString(io.Discard, d.String()) })
		tr.addAs(root, "repeat", start, nowNs(), 0)
	})
	return &outcome{cost: cost, ops: 1, digests: []runDigest{d}}
}

// singleRun is a sim workload whose repeat is one Machine.Run.
type singleRun struct {
	key   string
	build func() cluster.Machine
	cfg   cluster.RunConfig
}

func (j *singleRun) run(tr *tracer) (*outcome, error) {
	return runOne(tr, j.key, j.build, j.cfg, nil), nil
}
func (j *singleRun) close() {}

func setupTQSteady(seed uint64, quick bool) (job, error) {
	j := &singleRun{key: "tq", build: newTQ, cfg: tqSteadyConfig(seed, quick)}
	newTQ().Run(shrink(j.cfg))
	return j, nil
}

// tracedRingCap holds the 12.2 M events a 400 ms tq-steady run emits
// with headroom for other seeds (16.7 M events, 400 MB); a quick run
// emits about 0.15 M.
func tracedRingCap(quick bool) int {
	if quick {
		return 1 << 18
	}
	return 1 << 24
}

// chromePrefix is how many recorded events a tq-traced repeat exports
// as Chrome JSON. Exporting all 12 M takes ~13 s and allocates 3.7 GB,
// which would leave one repeat per run; a fixed half-million-event
// prefix keeps the export in the repeat at about a fifth of its time.
func chromePrefix(events []obs.Event, quick bool) []obs.Event {
	n := 1 << 19
	if quick {
		n /= 20
	}
	if len(events) > n {
		return events[:n]
	}
	return events
}

// newTouchedRing allocates a ring and writes every slot once, so the
// page faults of a fresh 400 MB slice are billed to set-up and not to
// whichever timed repeat first reaches each page.
func newTouchedRing(capacity int) *obs.Ring {
	ring := obs.NewRing(capacity)
	for i := 0; i < capacity; i++ {
		ring.Emit(obs.Event{})
	}
	ring.Reset()
	return ring
}

// tracedRun is tq-traced: the tq-steady run recording into a ring,
// then the post-processing a user of a trace runs.
type tracedRun struct {
	cfg   cluster.RunConfig
	ring  *obs.Ring
	quick bool
}

func (j *tracedRun) run(tr *tracer) (*outcome, error) {
	j.ring.Reset()
	var recorded, discarded int
	out := runOne(tr, "tq", newTQ, j.cfg, func(root uint64) {
		events := j.ring.Events()
		recorded, discarded = len(events), j.ring.Discarded()
		tr.timed("obs.Summarize", root, func() { obs.Summarize("tq", events) })
		tr.timed("obs.WriteChrome", root, func() {
			_ = obs.WriteChrome(io.Discard, obs.Process{Name: "tq", Events: chromePrefix(events, j.quick)}) // io.Discard cannot fail
		})
	})
	out.extra = map[string]float64{"obs.events_recorded": float64(recorded), "obs.ring_discarded": float64(discarded)}
	if discarded > 0 {
		return out, fmt.Errorf("obs ring discarded %d events: capacity %d is too small for this seed", discarded, cap(j.ring.Events()))
	}
	return out, nil
}
func (j *tracedRun) close() { j.ring = nil }

func setupTQTraced(seed uint64, quick bool) (job, error) {
	j := &tracedRun{cfg: tqSteadyConfig(seed, quick), ring: newTouchedRing(tracedRingCap(quick)), quick: quick}
	j.cfg.Obs = j.ring
	newTQ().Run(shrink(j.cfg))
	return j, nil
}

// rackTenants and rackArrivals are the costliest composition the
// workload plane offers: TPCC classes, Markov-modulated bursts, two
// tenants with reserved admission shares. The burst cycle is 100 µs,
// not the 1 ms internal/bench uses: at 1 ms a 200 ms run holds ~200
// cycles and the offered request count swings ±5 % from seed to seed,
// which the driver's ten-seed spread test would read as noise; at
// 100 µs it is ±0.8 %.
const rackArrivals = "mmpp:burst=10,duty=0.1,cycle=100us"

func rackTenants() []workload.Tenant {
	return []workload.Tenant{
		{Name: "big", Ratio: 0.9, Share: 0.5},
		{Name: "small", Ratio: 0.1, Share: 0.25},
	}
}

const rackFleetSize = 4

func rackConfig(seed uint64, quick bool) cluster.RunConfig {
	ms := sim.Time(200)
	if quick {
		ms = 5
	}
	w := workload.TPCC()
	return cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16*rackFleetSize),
		Arrivals: rackArrivals,
		Tenants:  rackTenants(),
		Duration: ms * sim.Millisecond,
		Warmup:   ms * sim.Millisecond / 10,
		Seed:     seed,
	}
}

func newFleet(policy string) func() cluster.Machine {
	return func() cluster.Machine { return rack.Fleet{N: rackFleetSize, Machine: "tq", Policy: policy} }
}

func setupRackFleet(seed uint64, quick bool) (job, error) {
	j := &singleRun{key: "rack-4x-tq-sew", build: newFleet("sew"), cfg: rackConfig(seed, quick)}
	j.build().Run(shrink(j.cfg))
	return j, nil
}

// pointStat is one completed sweep point as Scale.Progress reports it.
type pointStat struct {
	system string // "tq", "shinjuku" or "caladan"
	wall   time.Duration
	events uint64
}

// systemFamily folds a Result.System name onto the three machine
// families Figure 7 compares.
func systemFamily(system string) string {
	s := strings.ToLower(system)
	switch {
	case strings.HasPrefix(s, "shinjuku"):
		return "shinjuku"
	case strings.HasPrefix(s, "caladan"):
		return "caladan"
	}
	return "tq"
}

// fig7Run is fig7-sweep: experiments.Fig7 at Quick scale with the
// sweep pool sized to GOMAXPROCS.
type fig7Run struct {
	scale experiments.Scale
}

func fig7Scale(seed uint64, quick bool) experiments.Scale {
	sc := experiments.Quick
	sc.Seed = seed
	sc.Workers = runtime.GOMAXPROCS(0)
	if quick {
		sc.Duration, sc.Warmup, sc.Points = 2*sim.Millisecond, 200*sim.Microsecond, 4
	}
	return sc
}

func (j *fig7Run) run(tr *tracer) (*outcome, error) {
	out := &outcome{}
	out.cost = observe(func() { j.sweep(tr, out) })
	out.ops = int64(len(out.digests))
	return out, nil
}

// sweep is the timed body of a fig7-sweep repeat.
func (j *fig7Run) sweep(tr *tracer, out *outcome) {
	root, start := tr.reserve(), nowNs()
	fig, figStart := tr.reserve(), nowNs()
	sc := j.scale
	// Progress only notes each point: reading percentiles here would move
	// the Result's sort into the sweep's serialized callback.
	type point struct {
		key string
		res *cluster.Result
	}
	var (
		mu       sync.Mutex // Progress calls are serialized per sweep; the lock makes that local
		points   []point
		trackEnd = make([]int64, sc.Workers) // when each trace track last went idle
	)
	sc.Progress = func(p cluster.SweepPoint) {
		end := nowNs()
		mu.Lock()
		defer mu.Unlock()
		r := p.Result
		key := fmt.Sprintf("%s/%s/%d", r.Config.Workload.Name, r.System, p.Index)
		points = append(points, point{key, r})
		out.points = append(out.points, pointStat{system: systemFamily(r.System), wall: p.Wall, events: r.Events})
		if tr != nil {
			begin, track := end-p.Wall.Nanoseconds(), 0
			for t := range trackEnd {
				if trackEnd[t] <= begin {
					track = t
					break
				}
			}
			trackEnd[track] = end
			tr.add("point "+key, begin, end, fig, 0, 1+track)
		}
	}
	cmp := experiments.Fig7(sc)
	tr.addAs(fig, "experiments.Fig7", figStart, nowNs(), root)
	tr.timed("read-out", root, func() {
		sort.Slice(points, func(a, b int) bool { return points[a].key < points[b].key })
		for _, p := range points {
			out.digests = append(out.digests, digestOf(p.key, p.res))
		}
	})
	tr.timed("format", root, func() {
		for _, c := range cmp {
			for _, series := range c.PerClass {
				for i := range series {
					_, _ = io.WriteString(io.Discard, series[i].String())
				}
			}
		}
	})
	tr.addAs(root, "repeat", start, nowNs(), 0)
}
func (j *fig7Run) close() {}

func setupFig7(seed uint64, quick bool) (job, error) {
	j := &fig7Run{scale: fig7Scale(seed, quick)}
	warm := j.scale
	warm.Duration, warm.Warmup, warm.Points = j.scale.Duration/10, j.scale.Warmup/10, 2
	experiments.Fig7(warm)
	return j, nil
}
