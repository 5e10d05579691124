package main

// This file is the benchmark's contract in code: the workload list and
// every metric name with its unit, direction and bound. BENCHMARK.json
// at the repository root states the same lists for the driver;
// TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// metricSpec names one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none. The time bounds are as
// wide as the driver admits: in reference seconds the defining box's
// run-to-run spread reaches 12 % in a busy hour, and the driver's host
// has been noisier than that (README.md, "Noise floor"). A bound the
// host cannot hold would reject every change.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system waits for or pays. Every
// workload reports every one of them: the driver's contract admits no
// per-workload omissions, so the list holds only metrics with a real
// value on all five workloads (README.md, "End-to-end metrics").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer lists the single-layer metrics of the traced run, in the
// order the cost stack reads: engine, stream, queues, kernel, policy,
// metrics, obs, rack, sweep driver, live runtime, store, wire, load
// generator. The live_* rows are the live path's latency read-outs,
// listed here because only one workload can report them.
var perLayer = []metricSpec{
	{Name: "sim.wheel_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.heap_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workload.poisson_ns_per_arrival", Unit: "ns", Better: "lower"},
	{Name: "workload.composed_ns_per_arrival", Unit: "ns", Better: "lower"},
	{Name: "workload.allocs_per_arrival", Unit: "count", Better: "lower"},
	{Name: "pifo.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "pifo.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.fifo_push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.las_push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.pump_ns_per_arrival", Unit: "ns", Better: "lower"},
	{Name: "cluster.pump_allocs_per_arrival", Unit: "count", Better: "lower"},
	{Name: "cluster.sink_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "cluster.tq_policy_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "cluster.tq_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.shinjuku_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.caladan_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cluster.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "cluster.offered", Unit: "count", Better: "higher"},
	{Name: "cluster.completed", Unit: "count", Better: "higher"},
	{Name: "cluster.dropped", Unit: "count", Better: "lower"},
	{Name: "cluster.drop_share", Unit: "ratio", Better: "lower"},
	{Name: "stats.sample_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.sample_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.ring_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.events_recorded", Unit: "count", Better: "lower"},
	{Name: "obs.ring_discarded", Unit: "count", Better: "lower"},
	{Name: "obs.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.write_chrome_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.overhead_ratio_noparity", Unit: "ratio", Better: "lower"},
	{Name: "rack.fleet_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "rack.fleet_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "rack.sew_minus_random_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "experiments.points", Unit: "count", Better: "lower"},
	{Name: "experiments.point_wall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.point_wall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "experiments.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "tqrt.task_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "tqrt.tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tqrt.yield_ns", Unit: "ns", Better: "lower"},
	{Name: "tqrt.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "tqrt.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "tqrt.worker_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "kvstore.get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvstore.scan_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.load_s", Unit: "s", Better: "lower"},
	{Name: "netsim.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.udp_echo_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.received", Unit: "count", Better: "higher"},
	{Name: "live_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "live_get_p99_us", Unit: "us", Better: "lower"},
	{Name: "live_scan_p50_us", Unit: "us", Better: "lower"},
	{Name: "live_sojourn_p50_us", Unit: "us", Better: "lower"},
	{Name: "live_sojourn_p99_us", Unit: "us", Better: "lower"},
	{Name: "live_cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// exactLayer names the per-layer counts that must repeat bit-for-bit
// for a fixed seed; -diff compares them for equality, not by bound.
var exactLayer = map[string]bool{
	"sim.events":          true,
	"cluster.offered":     true,
	"cluster.completed":   true,
	"cluster.dropped":     true,
	"cluster.drop_share":  true,
	"obs.events_recorded": true,
	"obs.ring_discarded":  true,
	"experiments.points":  true,
	"loadgen.sent":        true,
}

// zeroAllocLayer names the allocation rows pinned at zero in steady
// state (the truncated integer, as testing.B reports it).
var zeroAllocLayer = []string{
	"workload.allocs_per_arrival",
	"pifo.allocs_per_op",
	"cluster.pump_allocs_per_arrival",
}

func specByName(list []metricSpec, name string) (metricSpec, bool) {
	for _, s := range list {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
