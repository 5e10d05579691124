package cluster

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// RatesUpTo returns n evenly spaced rates from max/n to max — the
// standard sweep grid used by the figure drivers. Degenerate inputs
// panic: n <= 0 would silently produce an empty grid (and max <= 0 a
// grid of invalid rates) that every downstream consumer — stamp,
// RunConfig.validate, series extraction — only rejects later, far from
// the actual mistake.
func RatesUpTo(max float64, n int) []float64 {
	if n <= 0 {
		panic("cluster: RatesUpTo needs n > 0 points")
	}
	if max <= 0 {
		panic("cluster: RatesUpTo needs a positive max rate")
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = max * float64(i+1) / float64(n)
	}
	return rates
}

// stamp turns a template into a sweep's point configurations: point i
// is base with Rate = rates[i] and Seed = rng.PointSeed(base.Seed, i),
// every other field (SLOs, Arrivals, Tenants, Duration, Warmup) carried
// through. Every sweep path — sequential, pooled curve, knee chain —
// builds its configurations here, so they all run exactly the same
// simulations: each point gets its own derived seed rather than sharing
// one across the curve (which would correlate the arrival streams of
// every point and make the curve's noise systematic instead of
// independent). A template carrying an Obs recorder is rejected: points
// may run concurrently and must not share one (see RunConfig.Obs).
func stamp(base RunConfig, rates []float64) []RunConfig {
	if base.Obs != nil {
		panic("cluster: a sweep template must not carry an Obs recorder; record single runs")
	}
	cfgs := make([]RunConfig, len(rates))
	for i, rate := range rates {
		cfgs[i] = base
		cfgs[i].Rate = rate
		cfgs[i].Seed = rng.PointSeed(base.Seed, uint64(i))
	}
	return cfgs
}

// Sweep runs the machine at every rate of the grid stamped from the
// template base (see stamp) and returns one Result per point, in rate
// order. Workload definitions are stateless, so the same value is shared
// across runs; each run constructs its own generator. It is the
// sequential reference for Plan.Sweep, which stamps its points
// identically and so reproduces this series for any worker count.
func Sweep(m Machine, base RunConfig, rates []float64) []*Result {
	out := make([]*Result, 0, len(rates))
	for _, cfg := range stamp(base, rates) {
		out = append(out, m.Run(cfg))
	}
	return out
}

// MachineFactory builds a fresh Machine for one simulation. Sweeps that
// run points concurrently take a factory instead of a Machine value so
// that no machine state — however benign under sequential reuse — is
// shared between simulations running on different goroutines.
type MachineFactory func() Machine

// SweepPoint describes one completed simulation, delivered to
// SweepOptions.OnPoint as a Plan progresses.
type SweepPoint struct {
	// Index is the point's position within its own curve or chain; Rate
	// and Seed are its offered load and the seed it ran under.
	Index int
	Rate  float64
	Seed  uint64
	// Result is the completed run's metrics.
	Result *Result
	// Wall is host wall-clock time the point's simulation took.
	Wall time.Duration
	// Done counts completed points of the plan (including this one);
	// Total counts declared ones, which a plan with chains need not
	// reach: points past a knee are never run.
	Done, Total int
}

// EventsPerSec reports the point's simulation speed in executed
// sim-events per wall-clock second.
func (p SweepPoint) EventsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Result.Events) / p.Wall.Seconds()
}

// SweepOptions tunes a Plan's worker pool.
type SweepOptions struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// OnPoint, when non-nil, observes each completed point. Calls are
	// serialized but arrive in completion order, not declaration order.
	OnPoint func(SweepPoint)
}

// Plan is one figure's worth of simulations — whole curves (Points,
// Sweep) and stop-at-the-first-violation scans (Chain, MaxRateUnder) —
// declared up front and then run once, by Run, on a single bounded
// worker pool. Every point is an independent simulation under a seed
// fixed at declaration, so what a plan returns does not depend on the
// worker count or on the order points happen to start in; only the wall
// time does. A Plan is single-use and not safe for concurrent
// declaration.
//
// Start order is by rank, as in a PIFO: every point carries a cost key
// computed when it is declared — its offered requests, Rate × Duration
// — and an idle worker takes the costliest point that may start, ties
// in declaration order. Starting the long simulations first is what
// keeps the pool from ending on one straggler (longest-processing-time
// list scheduling).
type Plan struct {
	opt    SweepOptions
	free   []*planPoint // independent points, sorted costliest-first by Run
	chains []*Chain
	total  int // declared points

	mu      sync.Mutex // guards cursor and every chain's progress
	idle    *sync.Cond // signalled when a chain point completes
	workers int
	cursor  int // next unstarted entry of free

	report sync.Mutex // serializes OnPoint and the done counter
	done   int
}

// planPoint is one declared simulation.
type planPoint struct {
	cfg   RunConfig
	cost  float64 // rank: costliest starts first
	seq   int     // declaration order, the tie-break
	index int     // position within its curve or chain
	chain *Chain  // nil for an independent point
	// run executes the simulation; pass is the chain predicate's verdict
	// (always true for independent points).
	run func() (res *Result, pass bool)
}

// before orders points by rank: higher cost first, then declaration order.
func (a *planPoint) before(b *planPoint) bool {
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.seq < b.seq
}

// NewPlan returns an empty plan that will run on opt's pool.
func NewPlan(opt SweepOptions) *Plan {
	p := &Plan{opt: opt}
	p.idle = sync.NewCond(&p.mu)
	return p
}

func (p *Plan) declare(cfg RunConfig, index int, chain *Chain, run func() (*Result, bool)) *planPoint {
	pt := &planPoint{
		cfg:   cfg,
		cost:  cfg.Rate * float64(cfg.Duration),
		seq:   p.total,
		index: index,
		chain: chain,
		run:   run,
	}
	p.total++
	return pt
}

// Curve is a declared set of independent points. Results holds one
// Result per point, in declaration order, once Plan.Run has returned.
type Curve struct {
	Results []*Result
}

// Points declares one independent simulation per configuration; run
// executes point i under cfgs[i]. It is called from pool goroutines, so
// it must build whatever machine state it needs afresh per call.
func (p *Plan) Points(cfgs []RunConfig, run func(i int, cfg RunConfig) *Result) *Curve {
	c := &Curve{Results: make([]*Result, len(cfgs))}
	for i, cfg := range cfgs {
		p.free = append(p.free, p.declare(cfg, i, nil, func() (*Result, bool) {
			c.Results[i] = run(i, cfg)
			return c.Results[i], true
		}))
	}
	return c
}

// Sweep declares one load curve: a fresh machine from mf at every rate,
// the points stamped from the template base exactly as the sequential
// Sweep stamps them, so the curve's Results equal Sweep's for any pool
// size.
func (p *Plan) Sweep(mf MachineFactory, base RunConfig, rates []float64) *Curve {
	return p.Points(stamp(base, rates), func(_ int, cfg RunConfig) *Result {
		return mf().Run(cfg)
	})
}

// Chain is a declared scan: points that matter only up to the first one
// failing a predicate. Passed is the number of leading points that
// passed — the scan's answer — once Plan.Run has returned.
//
// The pool parallelises across chains, not along them. A chain's points
// start in ascending order, and a point whose predecessor's verdict is
// still out starts only when a worker would otherwise idle (no
// independent point and no other chain has an answered predecessor),
// never more than Workers-1 points ahead of the unanswered one, and
// never once a violation is known. With one worker that is exactly the
// sequential scan.
type Chain struct {
	Passed int

	points []*planPoint
	passed []bool // per point: verdict in, and it passed
	next   int    // lowest unstarted point
	end    int    // the lowest point known to fail, or len(points): nothing from here on need start
}

// open reports whether the chain still has a point that may start.
func (c *Chain) open() bool { return c.next < c.end }

// settle records point i's verdict and advances Passed over every
// leading point now known to have passed.
func (c *Chain) settle(i int, pass bool) {
	if pass {
		c.passed[i] = true
	} else if i < c.end {
		c.end = i
	}
	for c.Passed < c.end && c.passed[c.Passed] {
		c.Passed++
	}
}

// Chain declares a scan over cfgs in order; run executes point i and
// reports whether it passes. Like Points' run it is called from pool
// goroutines. Results are handed to OnPoint and not retained.
func (p *Plan) Chain(cfgs []RunConfig, run func(i int, cfg RunConfig) (res *Result, pass bool)) *Chain {
	c := &Chain{points: make([]*planPoint, len(cfgs)), passed: make([]bool, len(cfgs)), end: len(cfgs)}
	for i, cfg := range cfgs {
		c.points[i] = p.declare(cfg, i, c, func() (*Result, bool) { return run(i, cfg) })
	}
	p.chains = append(p.chains, c)
	return c
}

// Knee is a declared MaxRateUnder search.
type Knee struct {
	rates []float64
	chain *Chain
}

// Rate returns the search's answer once Plan.Run has returned: the
// highest rate before the first violation, 0 if even the lowest
// violates — cluster.MaxRateUnder's value for the same grid and seed.
func (k *Knee) Rate() float64 {
	if k.chain.Passed == 0 {
		return 0
	}
	return k.rates[k.chain.Passed-1]
}

// MaxRateUnder declares a knee search as a chain over the ascending
// rate grid, stamped from the template as Sweep stamps it.
func (p *Plan) MaxRateUnder(mf MachineFactory, base RunConfig, rates []float64, ok func(*Result) bool) *Knee {
	chain := p.Chain(stamp(base, rates), func(_ int, cfg RunConfig) (*Result, bool) {
		r := mf().Run(cfg)
		return r, ok(r)
	})
	return &Knee{rates: rates, chain: chain}
}

// Run executes the plan and returns when every point that had to run
// has: all independent points, and each chain up to its first violation.
func (p *Plan) Run() {
	p.workers = p.opt.Workers
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	if p.workers > p.total {
		p.workers = p.total
	}
	sort.Slice(p.free, func(i, j int) bool { return p.free[i].before(p.free[j]) })
	var wg sync.WaitGroup
	for n := 0; n < p.workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := p.take(); pt != nil; pt = p.take() {
				p.execute(pt)
			}
		}()
	}
	wg.Wait()
}

// take blocks until a point may start and claims it; nil means nothing
// will ever be startable again and the worker should exit.
func (p *Plan) take() *planPoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		pt, more := p.claim()
		if pt != nil || !more {
			return pt
		}
		// Every open chain is waiting on a running point's verdict.
		p.idle.Wait()
	}
}

// claim marks the next point to start as started and returns it: the
// top-ranked among independent points and chain points whose
// predecessors have all passed; failing that, the run-ahead point
// closest to its chain's unanswered one. With nothing startable now,
// more reports whether a running point's verdict could still open one.
func (p *Plan) claim() (best *planPoint, more bool) {
	if p.cursor < len(p.free) {
		best = p.free[p.cursor]
	}
	for _, c := range p.chains {
		if c.open() && c.next == c.Passed {
			if pt := c.points[c.next]; best == nil || pt.before(best) {
				best = pt
			}
		}
	}
	if best == nil {
		lead := 0
		for _, c := range p.chains {
			if !c.open() {
				continue
			}
			more = true
			ahead := c.next - c.Passed
			if ahead >= p.workers {
				continue
			}
			if pt := c.points[c.next]; best == nil || ahead < lead || (ahead == lead && pt.before(best)) {
				best, lead = pt, ahead
			}
		}
	}
	if best != nil {
		if best.chain == nil {
			p.cursor++
		} else {
			best.chain.next++
		}
	}
	return best, more
}

// execute runs one claimed point, settles its chain and reports it.
func (p *Plan) execute(pt *planPoint) {
	start := time.Now() //simvet:ignore host wall-clock telemetry for sweep progress, not sim state
	res, pass := pt.run()
	// Read the clock before queueing for either lock: a point's wall time
	// must not include waiting out another worker's OnPoint callback.
	wall := time.Since(start) //simvet:ignore host wall-clock telemetry for sweep progress, not sim state
	if c := pt.chain; c != nil {
		p.mu.Lock()
		c.settle(pt.index, pass)
		p.mu.Unlock()
		p.idle.Broadcast()
	}
	if p.opt.OnPoint == nil {
		return
	}
	p.report.Lock()
	defer p.report.Unlock()
	p.done++
	p.opt.OnPoint(SweepPoint{
		Index:  pt.index,
		Rate:   pt.cfg.Rate,
		Seed:   pt.cfg.Seed,
		Result: res,
		Wall:   wall,
		Done:   p.done,
		Total:  p.total,
	})
}

// LatencySeries extracts a (rate, p99.9 end-to-end µs) curve for one
// class from sweep results, the y-axis of the cross-system figures.
func LatencySeries(label, class string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.P999EndToEndUs(class))
	}
	return s
}

// SojournSeries extracts a (rate, p99.9 sojourn µs) curve for one
// class, used for intra-TQ comparisons (§5.1 uses sojourn time there).
func SojournSeries(label, class string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.P999SojournUs(class))
	}
	return s
}

// P99SojournSeries extracts a (rate, p99 sojourn µs) curve for one
// class — the coarser-tail companion to SojournSeries, which rack
// routing comparisons plot side by side with the p99.9 curve.
func P99SojournSeries(label, class string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.P99SojournUs(class))
	}
	return s
}

// SlowdownSeries extracts a (rate, p99.9 slowdown) curve for one class
// ("" pools all classes).
func SlowdownSeries(label, class string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.P999Slowdown(class))
	}
	return s
}

// GoodputSeries extracts a (offered rate, goodput rps) curve from
// sweep results. Without SLO targets goodput equals throughput, so the
// curve shows where completions stop tracking offered load; with
// targets it shows where completions stop being useful.
func GoodputSeries(label string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.Goodput)
	}
	return s
}

// DropRateSeries extracts a (offered rate, drop fraction) curve from
// sweep results — the companion every past-the-knee latency curve
// needs, since survivor-only percentiles flatten exactly when the RX
// ring starts shedding load.
func DropRateSeries(label string, results []*Result) stats.Series {
	s := stats.Series{Label: label}
	for _, r := range results {
		s.Append(r.Config.Rate, r.DropRate)
	}
	return s
}

// MaxRateUnder scans rates in ascending order and returns the highest
// rate whose result satisfies ok, stopping at the first violation
// (latency-vs-load curves are monotone once they knee). Returns 0 if
// even the lowest rate violates. It is the sequential reference for
// Plan.MaxRateUnder, which stamps its points identically and so finds the
// same knee.
func MaxRateUnder(m Machine, base RunConfig, rates []float64, ok func(*Result) bool) float64 {
	best := 0.0
	for _, cfg := range stamp(base, rates) {
		if !ok(m.Run(cfg)) {
			break
		}
		best = cfg.Rate
	}
	return best
}
