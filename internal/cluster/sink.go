package cluster

import (
	"runtime"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Sink is the null machine: every admitted job completes instantly and
// returns to the pool. It exercises exactly the kernel's shared arrival
// path — generator draw, pump chaining, RX gating, obs emission, pooled
// job construction — and none of any real machine's scheduling, so it
// is the instrument for measuring (and guarding) that path's cost.
// MeasureArrivalPump and benchmark/ run on it; it is deliberately not
// in the machine registry, since it models no system from the paper.
type Sink struct {
	// arrivals counts admitted requests across the machine's runs.
	arrivals uint64
	// haltAt, when positive, halts the engine once arrivals reaches it —
	// how MeasureArrivalPump runs an exact number of arrivals.
	haltAt uint64
}

type sinkRun struct {
	machineRun
	basePolicy
	s *Sink
}

// NewSink returns a fresh sink machine.
func NewSink() *Sink { return &Sink{} }

// Name implements Machine.
func (s *Sink) Name() string { return "sink" }

// Run implements Machine: it pumps the configured workload through the
// kernel arrival path and discards every job. The Result carries only
// arrival-side bookkeeping (Offered, Events); no completions are
// recorded because the sink does no work.
func (s *Sink) Run(cfg RunConfig) *Result {
	r := sinkRuns.get()
	defer sinkRuns.put(r, &r.machineRun)
	r.s = s
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), 0, 1)
	return r.run(s.Name(), 0)
}

// admit implements machinePolicy: count the arrival and recycle the job.
func (r *sinkRun) admit(lane int, j *job) {
	r.pool.put(j)
	r.s.arrivals++
	if r.s.haltAt > 0 && r.s.arrivals >= r.s.haltAt {
		r.eng.Halt()
	}
}

var _ Machine = (*Sink)(nil)

// PumpMeasurement reports the measured cost of the kernel arrival path.
type PumpMeasurement struct {
	// Arrivals is the number of measured arrivals.
	Arrivals int
	// NsPerOp is wall-clock nanoseconds per arrival.
	NsPerOp float64
	// AllocsPerOp is heap allocations per arrival, exact (the companion
	// truncated integer — the testing.B convention — must be 0 in steady
	// state; TestArrivalPumpSteadyStateAllocs enforces it).
	AllocsPerOp float64
}

// MeasureArrivalPump drives n arrivals through the kernel's shared
// arrival path on the sink machine and reports the steady-state cost
// per arrival. A warmup phase of n/4 arrivals first grows the job pool
// and the engine's wheel-slot storage to their high-water marks, so the
// measured window sees the path as a long run does: zero allocations.
//
// The config pins Warmup just under Duration so metrics.record never
// fires (its sample growth would be charged to the pump) and leaves
// Obs nil, matching the untraced configuration the allocation guarantee
// is stated for.
func MeasureArrivalPump(n int) PumpMeasurement {
	if n <= 0 {
		panic("cluster: MeasureArrivalPump needs n > 0")
	}
	cfg := RunConfig{
		Workload: workload.ExtremeBimodal(),
		Rate:     0.6 * workload.ExtremeBimodal().MaxLoad(16),
		// Far horizon: arrivals must keep coming until the halt counter
		// trips, never the Duration cutoff.
		Duration: 1 << 40,
		Warmup:   1<<40 - 1,
		Seed:     61,
	}
	s := NewSink()
	r := &sinkRun{s: s}
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), 0, 1)

	warm := n / 4
	if warm < 1024 {
		warm = 1024
	}
	s.haltAt = uint64(warm)
	r.pump.Start()
	r.eng.Run() // halts at the warmup count, arrivals stay queued

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //simvet:ignore host wall-clock measurement of pump cost, not sim state
	s.haltAt = uint64(warm + n)
	r.eng.Run()
	elapsed := time.Since(start) //simvet:ignore host wall-clock measurement of pump cost, not sim state
	runtime.ReadMemStats(&after)

	return PumpMeasurement{
		Arrivals:    n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}
