package cluster

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// job is the simulator's in-flight request state. Jobs are pooled per
// run to keep the hot path allocation-free.
type job struct {
	id      uint64
	class   workload.Class
	tenant  int // index into the spec's tenant table (0 = anonymous)
	arrival sim.Time
	service sim.Time // demand after probe-overhead inflation
	base    sim.Time // original demand, for slowdown accounting
	remain  sim.Time
	quanta  int64 // quanta serviced so far (MSQ bookkeeping)
	worker  int   // owning worker, where applicable
}

// jobPool is a trivial freelist; the simulation is single-threaded.
// Besides recycling, it keeps the one machine-generic load signal:
// every admitted request takes a job from the pool and returns it when
// it leaves the machine, so out is the in-machine backlog regardless
// of which queues the model shuffles the job through in between.
type jobPool struct {
	free []*job
	// out counts jobs currently out of the pool — admitted but not yet
	// recycled — the queue-depth signal blind routing reads (Node.Backlog).
	out int
	// onPut, when non-nil, observes each job as it returns to the pool,
	// before its fields are recycled — the completion feed load-signal
	// consumers (rack shortest-expected-wait) estimate service time from.
	onPut func(*job)
}

//simvet:hotpath
func (p *jobPool) get() *job {
	p.out++
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free = p.free[:n-1]
		*j = job{}
		return j
	}
	return &job{}
}

//simvet:hotpath
func (p *jobPool) put(j *job) {
	p.out--
	if p.onPut != nil {
		p.onPut(j)
	}
	p.free = append(p.free, j)
}

// RunConfig describes one simulated experiment: a workload arriving at
// a fixed open-loop rate for a fixed virtual duration. The optional
// Arrivals and Tenants fields open the other workload axes; their zero
// values reproduce the paper's client (open-loop Poisson, one
// anonymous tenant) exactly.
type RunConfig struct {
	Workload *workload.Workload
	// Rate is the offered load in requests per second.
	Rate float64
	// Arrivals names the arrival process ("" = "poisson"); see
	// workload.ParseArrivals for the catalogue ("mmpp:burst=10,duty=0.1",
	// "diurnal:amp=0.8,period=100ms", "closed:users=64,think=100us").
	Arrivals string
	// Tenants, when non-empty, splits traffic among named tenants with
	// per-tenant admission shares; completions and drops are then also
	// aggregated per tenant (Result.PerTenant), and SLOs accepts
	// tenant-scoped keys ("tenant:class", "tenant:*").
	Tenants []workload.Tenant
	// Duration is the simulated run length; requests stop arriving at
	// Duration but in-flight jobs may still complete afterwards.
	Duration sim.Time
	// Warmup discards samples from requests that arrived before it
	// (the paper discards the first 10% of each 10s run).
	Warmup sim.Time
	// Seed makes the run reproducible.
	Seed uint64
	// SLOs, when non-nil, maps class name to a sojourn-time target for
	// goodput accounting: a completion counts toward Result.Goodput
	// only if its sojourn is within its class's target. The key "*"
	// applies to every class without an explicit entry. Classes with no
	// target always count, so a nil map makes Goodput equal Throughput.
	// Targets are on sojourn (not end-to-end) time so goodput compares
	// across machines with different modelled RTTs.
	SLOs map[string]sim.Time
	// Obs, when non-nil, receives the run's scheduling timeline in the
	// unified event vocabulary (package obs): arrivals on the loadgen
	// track, drops and dispatches on the dispatcher track, quanta and
	// their probe-yield/preempt/finish outcomes on the worker tracks.
	// All machine models emit the same vocabulary, so two runs recorded
	// into two recorders compare directly (obs.WriteChrome, obs.Diff).
	// Recording is per run: give concurrent runs (parallel sweeps)
	// separate recorders.
	Obs obs.Recorder
}

func (c RunConfig) validate() {
	if c.Workload == nil {
		panic("cluster: RunConfig.Workload is nil")
	}
	if c.Rate <= 0 {
		panic("cluster: RunConfig.Rate must be positive")
	}
	if c.Duration <= 0 || c.Warmup < 0 || c.Warmup >= c.Duration {
		panic("cluster: invalid Duration/Warmup")
	}
	if err := c.spec().Validate(); err != nil {
		panic("cluster: " + err.Error())
	}
}

// spec composes the config's workload axes into the workload.Spec the
// stream is built from.
func (c RunConfig) spec() workload.Spec {
	return workload.Spec{Workload: c.Workload, Rate: c.Rate, Arrivals: c.Arrivals, Tenants: c.Tenants}
}

// Stream materializes the config's composed request stream drawing
// from r. Every machine's standalone run, the rack fleet, and the
// benches construct their arrival stream through this one call (which
// defers to workload.Spec.Stream) — per-machine code chooses only
// which RNG stream feeds it, so the per-seed draw order stays explicit
// in the machine while stream construction cannot drift between
// layers.
func (c RunConfig) Stream(r *rng.Rand) *workload.Stream {
	return c.spec().Stream(r)
}

// TenantMetrics aggregates one tenant's traffic across all classes —
// the per-tenant view of the same measurement window ClassMetrics
// covers, including the tenant's own conservation law
// Offered == Completed + Dropped.
type TenantMetrics struct {
	Name string
	// Offered counts the tenant's resolved in-window requests.
	Offered uint64
	// Completed counts the tenant's post-warmup completions.
	Completed uint64
	// Dropped counts the tenant's post-warmup RX-ring drops.
	Dropped uint64
	// Good counts completions within the tenant's SLO target (SLOs keys
	// "tenant:class" and "tenant:*" override class-level targets).
	Good    uint64
	Sojourn *stats.Hist // ns, pooled across the tenant's classes
}

// ClassMetrics aggregates completions of one request class.
type ClassMetrics struct {
	Name  string
	Count uint64
	// Good counts completions within the class's SLO target; it equals
	// Count when the class has no target.
	Good     uint64
	Sojourn  *stats.Hist // ns, dispatcher-arrival to completion (§5.1)
	Slowdown *stats.Hist // sojourn / uninstrumented service time
}

// Result is the outcome of one Run.
type Result struct {
	System   string
	Config   RunConfig
	PerClass []ClassMetrics
	// PerTenant aggregates each tenant's traffic when the config defines
	// tenants; nil otherwise.
	PerTenant []TenantMetrics
	// Completed counts post-warmup completions; Throughput is
	// Completed divided by the post-warmup window, in requests/second.
	Completed  uint64
	Throughput float64
	// RTT is the simulated network round-trip added to sojourn time
	// when reporting end-to-end latency.
	RTT sim.Time
	// Offered counts the measurement window's resolved requests:
	// every post-warmup arrival whose fate — completion or RX-ring
	// drop — was decided by Duration. Requests still in flight when
	// the window closes appear in neither count (exactly as they are
	// absent from the latency percentiles), so the conservation law
	// Offered == Completed + Dropped holds for every run.
	Offered uint64
	// Dropped counts post-warmup arrivals rejected at a full RX ring.
	// Survivor-only percentiles are meaningful only alongside it: past
	// the knee a machine can report flat tails simply by shedding load.
	Dropped uint64
	// DropRate is Dropped/Offered (0 when nothing was offered).
	DropRate float64
	// Goodput is the rate of in-window completions that met their
	// class's SLO target (RunConfig.SLOs), in requests/second. With no
	// targets configured it equals Throughput.
	Goodput float64
	// Events counts the discrete-event simulation steps the run
	// executed — the work unit behind the sweep progress layer's
	// sim-events/second metric.
	Events uint64
}

// Class returns the metrics for the class with the given name, or nil.
func (r *Result) Class(name string) *ClassMetrics {
	for i := range r.PerClass {
		if r.PerClass[i].Name == name {
			return &r.PerClass[i]
		}
	}
	return nil
}

// Tenant returns the metrics for the tenant with the given name, or
// nil when the run had no such tenant.
func (r *Result) Tenant(name string) *TenantMetrics {
	for i := range r.PerTenant {
		if r.PerTenant[i].Name == name {
			return &r.PerTenant[i]
		}
	}
	return nil
}

// P999SojournUs returns the p99.9 sojourn time of a class in µs.
func (r *Result) P999SojournUs(class string) float64 {
	c := r.Class(class)
	if c == nil || c.Count == 0 {
		return 0
	}
	return c.Sojourn.P999() / 1000
}

// P99SojournUs returns the p99 sojourn time of a class in µs — the
// coarser tail the rack routing comparisons report alongside p99.9.
func (r *Result) P99SojournUs(class string) float64 {
	c := r.Class(class)
	if c == nil || c.Count == 0 {
		return 0
	}
	return c.Sojourn.P99() / 1000
}

// P999EndToEndUs returns the p99.9 end-to-end latency (sojourn + RTT)
// of a class in µs, the metric used for cross-system comparisons.
func (r *Result) P999EndToEndUs(class string) float64 {
	c := r.Class(class)
	if c == nil || c.Count == 0 {
		return 0
	}
	return (c.Sojourn.P999() + float64(r.RTT)) / 1000
}

// P999Slowdown returns the p99.9 slowdown of a class; with class ""
// it pools all classes (the paper's "overall slowdown" for TPC-C).
func (r *Result) P999Slowdown(class string) float64 {
	if class != "" {
		c := r.Class(class)
		if c == nil || c.Count == 0 {
			return 0
		}
		return c.Slowdown.P999()
	}
	var pooled stats.Hist
	for i := range r.PerClass {
		pooled.Merge(r.PerClass[i].Slowdown)
	}
	return pooled.P999()
}

// metrics is the recording half shared by all machines.
type metrics struct {
	cfg      RunConfig
	perClass []ClassMetrics
	done     uint64
	good     uint64
	slo      []sim.Time // per-class sojourn target; 0 = none
	// perTenant and tslo exist only when the config defines tenants:
	// tslo is the tenant-scoped target table indexed tenant*nClasses +
	// class, which then replaces slo for goodput accounting.
	perTenant []TenantMetrics
	tslo      []sim.Time
	adm       *admission
}

func newMetrics(cfg RunConfig) *metrics {
	m := &metrics{cfg: cfg}
	for _, c := range cfg.Workload.Classes {
		m.perClass = append(m.perClass, ClassMetrics{
			Name:     c.Name,
			Sojourn:  new(stats.Hist),
			Slowdown: new(stats.Hist),
		})
	}
	m.slo = sloTargets(cfg)
	for _, t := range cfg.Tenants {
		m.perTenant = append(m.perTenant, TenantMetrics{
			Name:    t.Name,
			Sojourn: new(stats.Hist),
		})
	}
	if len(cfg.Tenants) > 0 {
		m.tslo = sloTenantTargets(cfg)
	}
	return m
}

// admission creates the run's RX-stage gate and ties its drop counter
// into this recorder, so result() can report drops next to
// completions. limit <= 0 models an unbounded stage (the gate then
// admits everything and tracks nothing).
func (m *metrics) admission(limit, lanes int) *admission {
	m.adm = newAdmission(m.cfg.Warmup, limit, lanes)
	m.adm.shares(m.cfg.Tenants)
	return m.adm
}

// emit records a scheduling event in the unified vocabulary when
// RunConfig.Obs is attached; with no recorder it is a nil check. All
// machine models funnel their timeline through this one helper so the
// event semantics cannot drift between models.
//
//simvet:hotpath
func (m *metrics) emit(t sim.Time, k obs.Kind, task uint64, class workload.Class, core int32) {
	if m.cfg.Obs == nil {
		return
	}
	m.cfg.Obs.Emit(obs.Event{T: int64(t), Task: task, Core: core, Class: int16(class), Kind: k})
}

// tracing reports whether an obs recorder is attached; machines use it
// to skip event construction work that would otherwise be wasted.
func (m *metrics) tracing() bool { return m.cfg.Obs != nil }

// record notes a completion at time now for a job that arrived at
// j.arrival with base demand j.base. Only completions inside the
// measurement window count: jobs finishing during the post-arrival
// drain would otherwise credit an overloaded system with throughput it
// cannot sustain.
//
//simvet:hotpath
func (m *metrics) record(j *job, now sim.Time) {
	if j.arrival < m.cfg.Warmup || now > m.cfg.Duration {
		return
	}
	c := &m.perClass[j.class]
	c.Count++
	m.done++
	sojourn := now - j.arrival
	target := m.slo[j.class]
	if m.tslo != nil {
		target = m.tslo[j.tenant*len(m.perClass)+int(j.class)]
	}
	good := target == 0 || sojourn <= target
	if good {
		c.Good++
		m.good++
	}
	c.Sojourn.Add(int64(sojourn))
	c.Slowdown.Observe(float64(sojourn) / float64(j.base))
	if len(m.perTenant) > 0 {
		tm := &m.perTenant[j.tenant]
		tm.Completed++
		if good {
			tm.Good++
		}
		tm.Sojourn.Add(int64(sojourn))
	}
}

// tenantDrop books an RX-ring drop on the request's tenant, under the
// same measurement window the admission gate's drop counter uses (a
// drop resolves at its arrival instant).
//
//simvet:hotpath
func (m *metrics) tenantDrop(req workload.Request) {
	if len(m.perTenant) == 0 || req.Arrival < m.cfg.Warmup {
		return
	}
	m.perTenant[req.Tenant].Dropped++
}

func (m *metrics) result(system string, rtt sim.Time) *Result {
	window := (m.cfg.Duration - m.cfg.Warmup).Seconds()
	var dropped uint64
	if m.adm != nil {
		dropped = m.adm.dropped
	}
	offered := m.done + dropped
	var dropRate float64
	if offered > 0 {
		dropRate = float64(dropped) / float64(offered)
	}
	for i := range m.perTenant {
		tm := &m.perTenant[i]
		tm.Offered = tm.Completed + tm.Dropped
	}
	return &Result{
		System:     system,
		Config:     m.cfg,
		PerClass:   m.perClass,
		PerTenant:  m.perTenant,
		Completed:  m.done,
		Throughput: float64(m.done) / window,
		RTT:        rtt,
		Offered:    offered,
		Dropped:    dropped,
		DropRate:   dropRate,
		Goodput:    float64(m.good) / window,
	}
}

// Machine is a simulated scheduling system.
type Machine interface {
	// Run simulates the configuration and returns its metrics.
	Run(cfg RunConfig) *Result
	// Name identifies the system in reports.
	Name() string
}

// String renders a one-line summary, useful in logs and examples.
func (r *Result) String() string {
	s := fmt.Sprintf("%s rate=%.2gMrps tput=%.2gMrps", r.System, r.Config.Rate/1e6, r.Throughput/1e6)
	if r.Dropped > 0 {
		s += fmt.Sprintf(" drops=%d(%.1f%%)", r.Dropped, 100*r.DropRate)
	}
	if r.Goodput < r.Throughput {
		s += fmt.Sprintf(" goodput=%.2gMrps", r.Goodput/1e6)
	}
	for i := range r.PerClass {
		c := &r.PerClass[i]
		if c.Count == 0 {
			continue
		}
		s += fmt.Sprintf(" %s[p999=%.1fµs n=%d]", c.Name, c.Sojourn.P999()/1000, c.Count)
	}
	return s
}
