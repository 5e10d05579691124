package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tqrt"
	"repro/internal/workload"
)

// The layer suite times each layer from outside, through its public
// functions, and assembles the outside-in cost stack. It is the same
// whichever workload the traced run was asked for: every per-layer
// metric has one fixed source, named beside it in README.md.

// churnDepth is the standing queue depth of every churn probe — the
// regime a mid-load 16-core machine run keeps its queues in.
const churnDepth = 1024

// layerSizes are the operation counts of the micro rows.
type layerSizes struct {
	churn  int // engine, stream, queue churn operations
	stat   int // stats adds and the sorted sample
	tasks  int // tqrt round trips
	probes int // tqrt probes per task
	gets   int // kvstore point reads
	scans  int // kvstore scans
	echoes int // UDP echo round trips
	pairs  int // interleaved repeats of each ladder rung and rack policy
}

func sizesFor(quick bool) layerSizes {
	if quick {
		return layerSizes{churn: 100_000, stat: 50_000, tasks: 2_000, probes: 10_000, gets: 10_000, scans: 10, echoes: 500, pairs: 1}
	}
	return layerSizes{churn: 2_000_000, stat: 1_000_000, tasks: 50_000, probes: 200_000, gets: 200_000, scans: 200, echoes: 5_000, pairs: 2}
}

// layerResult is what the suite hands the traced run.
type layerResult struct {
	metrics map[string]Metric
	ladder  []rung
	ops     int64 // operations checked (sim runs and live requests)
	failed  int64
	errs    []string
}

// rung is one step of the layer ladder on the tq-steady job, in ns per
// request: each rung adds one layer to the one above it.
type rung struct {
	Name         string  `json:"name"`
	NsPerRequest float64 `json:"ns_per_request"`
	Note         string  `json:"note"`
}

// calibrationNsPerEvent is the host-calibration row: the retired 4-ary
// heap engine churn, whose code no optimisation touches. If it moves
// between two runs, the host moved.
func calibrationNsPerEvent(n int) float64 {
	sim.HeapChurn(churnDepth, n/10, 61)
	return float64(sim.HeapChurn(churnDepth, n, 61).Nanoseconds()) / float64(n)
}

// fifoChurn and lasChurn are the pop/push churn of pifo.Churn applied
// to the two internal/core queues the non-TQ machines and tqrt still use.
func fifoChurn(n int) time.Duration {
	var q core.FIFO[int]
	for i := 0; i < churnDepth; i++ {
		q.Push(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		v, _ := q.Pop()
		q.Push(v)
	}
	return time.Since(start)
}

func lasChurn(n int) time.Duration {
	var q core.LASQueue[int]
	s := uint64(61)
	next := func() int64 {
		s = s*6364136223846793005 + 1442695040888963407
		return int64(s >> 33)
	}
	for i := 0; i < churnDepth; i++ {
		q.Push(i, next())
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		v, _, _ := q.Pop()
		q.Push(v, next())
	}
	return time.Since(start)
}

// runLayers executes the suite. seed feeds the jobs that take one (the
// ladder's tq-steady config, the rack pair, the sweep, the live sets);
// the churn probes keep their own fixed seeds.
func runLayers(seed uint64, quick bool, tr *tracer) (*layerResult, error) {
	sz := sizesFor(quick)
	lr := &layerResult{metrics: map[string]Metric{}}
	set := func(name string, samples ...float64) { lr.metrics[name] = newMetric(name, samples) }
	perOp := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	// timed is the wall time of body in ns per one of its n operations.
	timed := func(n int, body func()) float64 {
		start := time.Now()
		body()
		return perOp(time.Since(start), n)
	}
	layer := func(name string, fn func()) { tr.timed("layer "+name, 0, fn) }

	layer("sim", func() {
		sim.EngineChurn(churnDepth, sz.churn/10, 61) // warm the wheel's slot storage
		set("sim.wheel_ns_per_event", perOp(sim.EngineChurn(churnDepth, sz.churn, 61), sz.churn))
		set("sim.heap_ns_per_event", calibrationNsPerEvent(sz.churn))
	})

	layer("workload", func() {
		poisson := tqSteadyConfig(61, false).Stream(rng.New(61))
		workload.StreamChurn(poisson, sz.churn/10)
		u := observe(func() { workload.StreamChurn(poisson, sz.churn) })
		set("workload.poisson_ns_per_arrival", u.wall*1e9/float64(sz.churn))
		composed := rackConfig(61, false).Stream(rng.New(61))
		workload.StreamChurn(composed, sz.churn/10)
		u = observe(func() { workload.StreamChurn(composed, sz.churn) })
		set("workload.composed_ns_per_arrival", u.wall*1e9/float64(sz.churn))
		set("workload.allocs_per_arrival", float64(u.mallocs)/float64(sz.churn))
	})

	layer("pifo+core", func() {
		pifo.Churn(churnDepth, sz.churn/10, 61)
		u := observe(func() { pifo.Churn(churnDepth, sz.churn, 61) })
		set("pifo.push_pop_ns", u.wall*1e9/float64(sz.churn))
		set("pifo.allocs_per_op", float64(u.mallocs)/float64(sz.churn))
		set("core.fifo_push_pop_ns", perOp(fifoChurn(sz.churn), sz.churn))
		set("core.las_push_pop_ns", perOp(lasChurn(sz.churn), sz.churn))
	})

	layer("cluster pump", func() {
		pump := cluster.MeasureArrivalPump(sz.churn / 2)
		set("cluster.pump_ns_per_arrival", pump.NsPerOp)
		set("cluster.pump_allocs_per_arrival", pump.AllocsPerOp)
	})

	layer("stats", func() {
		sample := stats.NewSample(0)
		r := rng.New(61)
		values := make([]float64, sz.stat)
		for i := range values {
			values[i] = r.Exp(1000)
		}
		set("stats.sample_add_ns", timed(sz.stat, func() {
			for _, v := range values {
				sample.Add(v)
			}
		}))
		set("stats.sample_p999_ms", timed(1, func() { sample.P999() })/1e6) // the first percentile call sorts
		var hist stats.LatencyHist
		set("stats.hist_add_ns", timed(sz.stat, func() {
			for _, v := range values {
				hist.Add(int64(v))
			}
		}))
	})

	layer("ladder", func() { ladder(lr, set, seed, quick, sz.pairs) })
	layer("rack", func() { rackPair(lr, set, seed, quick, sz.pairs) })
	layer("experiments", func() { sweepLayer(lr, set, seed, quick) })

	var err error
	layer("tqrt", func() { tqrtLayer(set, sz) })
	layer("kvstore", func() { kvstoreLayer(set, sz, quick) })
	layer("netsim", func() {
		req := netsim.Request{ID: 7, SentNs: 9, Kind: kindGET, Payload: make([]byte, 4)}
		var pkt []byte
		set("netsim.encode_ns", timed(sz.churn, func() {
			for i := 0; i < sz.churn; i++ {
				pkt = netsim.EncodeRequest(pkt[:0], &req)
			}
		}))
		set("netsim.decode_ns", timed(sz.churn, func() {
			for i := 0; i < sz.churn && err == nil; i++ {
				_, err = netsim.DecodeRequest(pkt)
			}
		}))
		if err != nil {
			err = fmt.Errorf("netsim.DecodeRequest of an encoded request: %w", err)
			return
		}
		var echo float64
		if echo, err = udpEchoP50(sz.echoes); err == nil {
			set("netsim.udp_echo_p50_us", echo)
		}
	})
	if err != nil {
		return nil, err
	}
	layer("live", func() { err = liveLayer(lr, set, seed, quick) })
	if err != nil {
		return nil, err
	}
	return lr, nil
}

// checkRun folds one sim run's conservation check into the suite's
// attempted/failed counts.
func (lr *layerResult) checkRun(d runDigest) {
	lr.ops++
	if !d.conserved() {
		lr.failed++
		lr.errs = append(lr.errs, fmt.Sprintf("%s: offered %d != completed %d + dropped %d", d.Key, d.Offered, d.Completed, d.Dropped))
	}
}

// ladder climbs the outside-in cost stack on the tq-steady job: wheel
// churn → stream churn → sink run → TQ run → TQ with a ring held as
// ballast → TQ with the ring attached. Rung differences are the added
// layer's self time. The no-ring runs come first, before the ring
// exists in the heap; ballast and attached runs are then interleaved,
// so obs.overhead_ratio compares runs with equal heaps and
// obs.overhead_ratio_noparity documents what GC pacing does to the
// naive comparison.
func ladder(lr *layerResult, set func(string, ...float64), seed uint64, quick bool, pairs int) {
	cfg := tqSteadyConfig(seed, quick)
	var sinkWall, tqWall []float64
	var tqRes *cluster.Result
	var tqCost usage
	newTQ().Run(shrink(cfg))
	for i := 0; i < pairs; i++ {
		sinkWall = append(sinkWall, observe(func() { cluster.NewSink().Run(cfg) }).wall)
		tqCost = observe(func() { tqRes = newTQ().Run(cfg) })
		tqWall = append(tqWall, tqCost.wall)
	}
	d := digestOf("tq", tqRes)
	lr.checkRun(d)
	requests, events := float64(tqRes.Offered), float64(tqRes.Events)

	ring := newTouchedRing(tracedRingCap(quick))
	traced := cfg
	traced.Obs = ring
	var ballastWall, obsWall []float64
	for i := 0; i < pairs; i++ {
		ballastWall = append(ballastWall, observe(func() { newTQ().Run(cfg) }).wall) // ring held, not attached
		ring.Reset()
		obsWall = append(obsWall, observe(func() { newTQ().Run(traced) }).wall)
	}
	recorded := ring.Events()
	set("obs.events_recorded", float64(len(recorded)))
	set("obs.ring_discarded", float64(ring.Discarded()))
	if ring.Discarded() > 0 {
		lr.failed++
		lr.errs = append(lr.errs, fmt.Sprintf("obs ring discarded %d events", ring.Discarded()))
	}
	start := time.Now()
	obs.Summarize("tq", recorded)
	set("obs.summarize_ms", time.Since(start).Seconds()*1e3)
	start = time.Now()
	_ = obs.WriteChrome(io.Discard, obs.Process{Name: "tq", Events: chromePrefix(recorded, quick)}) // io.Discard cannot fail
	set("obs.write_chrome_ms", time.Since(start).Seconds()*1e3)
	emits := cap(recorded)
	ring.Reset()
	start = time.Now()
	for i := 0; i < emits; i++ {
		ring.Emit(obs.Event{T: int64(i), Task: uint64(i), Kind: obs.Arrive})
	}
	set("obs.ring_emit_ns", float64(time.Since(start).Nanoseconds())/float64(emits))
	runtime.KeepAlive(ring)

	sinkNs, tqNs := median(sinkWall)*1e9/requests, median(tqWall)*1e9/requests
	ballastNs, obsNs := median(ballastWall)*1e9/requests, median(obsWall)*1e9/requests
	set("sim.events", events)
	set("sim.ns_per_event", median(tqWall)*1e9/events)
	set("cluster.sink_ns_per_req", sinkNs)
	set("cluster.tq_policy_ns_per_req", tqNs-sinkNs)
	set("cluster.allocs_per_event", float64(tqCost.mallocs)/events)
	set("cluster.bytes_per_req", float64(tqCost.bytes)/requests)
	set("obs.overhead_ratio", obsNs/ballastNs)
	set("obs.overhead_ratio_noparity", obsNs/tqNs)

	wheel := lr.metrics["sim.wheel_ns_per_event"].Value * events / requests
	stream := lr.metrics["workload.poisson_ns_per_arrival"].Value
	lr.ladder = []rung{
		{"wheel churn", wheel, "sim.wheel_ns_per_event x events per request: the engine's share if every event cost a churn event"},
		{"stream churn", stream, "workload.poisson_ns_per_arrival: one arrival drawn per request"},
		{"sink run", sinkNs, "engine + pump + stream + admission, no policy (cluster.sink_ns_per_req)"},
		{"tq run", tqNs, fmt.Sprintf("sink %.1f + policy residual %.1f (pifo, TQ policy, stats)", sinkNs, tqNs-sinkNs)},
		{"tq + ballast", ballastNs, "the same run with an unattached ring in the heap: GC pacing alone"},
		{"tq + obs", obsNs, fmt.Sprintf("ring attached: obs self time %.1f over ballast", obsNs-ballastNs)},
	}
}

// rackPair runs the rack-fleet job under sew and under random routing,
// interleaved; the wall difference per request is what routing, backlog
// probes and completion feedback cost.
func rackPair(lr *layerResult, set func(string, ...float64), seed uint64, quick bool, pairs int) {
	cfg := rackConfig(seed, quick)
	var sewWall, randWall []float64
	var res *cluster.Result
	var mallocs uint64
	newFleet("sew")().Run(shrink(cfg))
	for i := 0; i < pairs; i++ {
		u := observe(func() { res = newFleet("sew")().Run(cfg) })
		sewWall, mallocs = append(sewWall, u.wall), u.mallocs
		randWall = append(randWall, observe(func() { newFleet("random")().Run(cfg) }).wall)
	}
	lr.checkRun(digestOf("rack-4x-tq-sew", res))
	set("rack.fleet_ns_per_event", median(sewWall)*1e9/float64(res.Events))
	set("rack.fleet_allocs_per_event", float64(mallocs)/float64(res.Events))
	set("rack.sew_minus_random_ns_per_req", (median(sewWall)-median(randWall))*1e9/float64(res.Offered))
}

// sweepLayer runs the fig7-sweep job once and reads the sweep driver's
// own telemetry: per-system cost per event, the point-wall distribution
// (the slowest point sets the sweep's tail) and how much of the worker
// pool's time was spent inside points.
func sweepLayer(lr *layerResult, set func(string, ...float64), seed uint64, quick bool) {
	j := &fig7Run{scale: fig7Scale(seed, quick)}
	out, _ := j.run(nil) // fig7Run.run returns no error

	var offered, completed, dropped uint64
	for _, d := range out.digests {
		lr.checkRun(d)
		offered, completed, dropped = offered+d.Offered, completed+d.Completed, dropped+d.Dropped
	}
	set("cluster.offered", float64(offered))
	set("cluster.completed", float64(completed))
	set("cluster.dropped", float64(dropped))
	set("cluster.drop_share", float64(dropped)/float64(offered))

	sysWall, sysEvents := map[string]float64{}, map[string]float64{}
	var walls []float64
	var sum float64
	for _, p := range out.points {
		sysWall[p.system] += float64(p.wall.Nanoseconds())
		sysEvents[p.system] += float64(p.events)
		walls = append(walls, p.wall.Seconds()*1e3)
		sum += p.wall.Seconds()
	}
	for _, sys := range []string{"tq", "shinjuku", "caladan"} {
		set("cluster."+sys+"_ns_per_event", sysWall[sys]/sysEvents[sys])
	}
	sort.Float64s(walls)
	set("experiments.points", float64(len(walls)))
	set("experiments.point_wall_ms_p50", percentile(walls, 0.50))
	set("experiments.point_wall_ms_max", walls[len(walls)-1])
	set("experiments.parallel_efficiency", sum/(float64(j.scale.Workers)*out.cost.wall))
}

// tqrtLayer times the live runtime's two mechanisms: handing a task to
// a worker and back, and a probe that yields against one that does not.
func tqrtLayer(set func(string, ...float64), sz layerSizes) {
	rt := tqrt.New(tqrt.Config{Workers: 2, Coroutines: 8, Quantum: 25 * time.Microsecond})
	rt.Start()
	done := make(chan struct{})
	task := func(*tqrt.Yield) { done <- struct{}{} }
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			_ = rt.Submit(task) // the runtime is running: Submit only fails after Stop
			<-done
		}
	}
	roundTrips(sz.tasks / 10)
	start := time.Now()
	roundTrips(sz.tasks)
	rtt := float64(time.Since(start).Nanoseconds()) / float64(sz.tasks)
	rt.Stop()
	set("tqrt.task_roundtrip_ns", rtt)
	set("tqrt.tasks_per_s", 1e9/rtt)

	// Two tasks on one worker, each probing in a loop. With a 1 ns
	// quantum every probe finds the quantum expired and yields to the
	// other task; with an hour's quantum none does.
	probeLoop := func(quantum time.Duration) float64 {
		rt := tqrt.New(tqrt.Config{Workers: 1, Coroutines: 8, Quantum: quantum})
		rt.Start()
		var wg sync.WaitGroup
		wg.Add(2)
		start := time.Now()
		for t := 0; t < 2; t++ {
			_ = rt.Submit(func(y *tqrt.Yield) { // running runtime: cannot fail
				defer wg.Done()
				for i := 0; i < sz.probes; i++ {
					y.Probe()
				}
			})
		}
		wg.Wait()
		wall := time.Since(start)
		rt.Stop()
		return float64(wall.Nanoseconds()) / float64(2*sz.probes)
	}
	set("tqrt.yield_ns", probeLoop(time.Nanosecond))
	set("tqrt.probe_ns", probeLoop(time.Hour))
}

// kvstoreLayer times the store the live server reads.
func kvstoreLayer(set func(string, ...float64), sz layerSizes, quick bool) {
	n := liveKeys
	if quick {
		n /= 20
	}
	start := time.Now()
	store, keys := loadStore(n)
	set("kvstore.load_s", time.Since(start).Seconds())
	r := rng.New(61)
	start = time.Now()
	for i := 0; i < sz.gets; i++ {
		store.Get(keys[r.Intn(n)])
	}
	set("kvstore.get_ns", float64(time.Since(start).Nanoseconds())/float64(sz.gets))
	start = time.Now()
	for i := 0; i < sz.scans; i++ {
		store.Scan(keys[r.Intn(n)], liveScanLen, func(_, _ []byte) bool { return true })
	}
	set("kvstore.scan_us", float64(time.Since(start).Nanoseconds())/1e3/float64(sz.scans))
}

// liveLayer plays one untraced and one traced live-kv set. The untraced
// set supplies the live path's latency read-outs; the traced one the
// per-request queue wait and the worker balance.
func liveLayer(lr *layerResult, set func(string, ...float64), seed uint64, quick bool) error {
	j, err := setupLiveKV(seed, quick)
	if err != nil {
		return err
	}
	defer j.close()
	plain, err := j.run(nil)
	if err != nil {
		return err
	}
	traced, err := j.run(newTracer())
	if err != nil {
		return err
	}
	lr.ops += plain.ops + traced.ops
	lr.failed += plain.failed + traced.failed
	if f := plain.failed + traced.failed; f > 0 {
		lr.errs = append(lr.errs, fmt.Sprintf("live sets left %d requests unanswered", f))
	}
	for _, name := range []string{"live_get_p50_us", "live_get_p99_us", "live_scan_p50_us", "live_sojourn_p50_us",
		"live_sojourn_p99_us", "live_cpu_us_per_req", "loadgen.lag_p50_us", "loadgen.lag_p99_us", "loadgen.sent", "loadgen.received"} {
		set(name, plain.extra[name])
	}
	set("tqrt.queue_wait_p50_us", traced.extra["tqrt.queue_wait_p50_us"])
	set("tqrt.worker_imbalance", traced.extra["tqrt.worker_imbalance"])
	if late := lateGenerator(plain.extra); late != "" {
		fmt.Println("warning:", late, "- the live_* rows are invalid")
	}
	return nil
}

// loadgenLagLimit is the validity rule for the open-loop generator: a
// set whose send lag at a percentile exceeds this share of the GET
// latency reported at the same percentile measured the generator, not
// the server. (Like is compared with like: a single Poisson sender
// paying ~5 us per send is necessarily that late whenever two requests
// fall due together, which is every tenth request at 20k rps, so its
// p99 lag cannot be held to a share of the median latency.)
const loadgenLagLimit = 0.10

// lateGenerator applies loadgenLagLimit to a set's read-outs and
// describes the violation, or returns "" for a valid set (or a
// workload without a load generator).
func lateGenerator(extra map[string]float64) string {
	for _, p := range []string{"p50", "p99"} {
		lag, lat := extra["loadgen.lag_"+p+"_us"], extra["live_get_"+p+"_us"]
		if lag > loadgenLagLimit*lat {
			return fmt.Sprintf("load generator ran late: lag %s %.1f us is over %.0f%% of GET %s %.1f us", p, lag, 100*loadgenLagLimit, p, lat)
		}
	}
	return ""
}
