package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// This file is the service-law axis of the workload plane: a
// ServiceSampler is a named distribution over per-request CPU demand,
// attached per class (ClassInfo.Sampler). The Table 1 laws —
// deterministic per-class times, Exp(1), empirical traces — are the
// historical samplers; Pareto and lognormal add the heavy tails
// production µs-scale services actually show. Samplers are data:
// ParseService resolves a textual law ("pareto:mean=10us,alpha=1.4")
// exactly as pifo.Parse resolves a queue discipline.

// ServiceSampler draws per-request service demands for one class.
// Implementations draw only from the provided rng.Rand (never global
// state) with a fixed draw count per sample, so a workload's RNG stream
// layout is a pure function of the request sequence.
type ServiceSampler interface {
	// Name renders the law with its parameters, for reports.
	Name() string
	// Sample draws one service demand. Results below 1ns are clamped by
	// the caller (a job needs at least 1ns of work).
	Sample(r *rng.Rand) sim.Time
	// Mean returns the law's expected service time, the quantity
	// MaxLoad and knee-finding sweeps plan against.
	Mean() sim.Time
}

// expSampler is the exponential law: Exp with the given mean (Table
// 1's Exp(1) workload, CV = 1).
type expSampler struct{ mean sim.Time }

func (s expSampler) Name() string   { return fmt.Sprintf("exp(mean=%v)", s.mean) }
func (s expSampler) Mean() sim.Time { return s.mean }

//simvet:hotpath
func (s expSampler) Sample(r *rng.Rand) sim.Time {
	return sim.Time(r.Exp(float64(s.mean)) + 0.5)
}

// traceSampler replays an empirical distribution: service times drawn
// uniformly from a recorded trace.
type traceSampler struct {
	trace []sim.Time
	mean  sim.Time
}

func newTraceSampler(trace []sim.Time) traceSampler {
	if len(trace) == 0 {
		panic("workload: empty trace")
	}
	var sum float64
	for _, s := range trace {
		if s <= 0 {
			panic("workload: non-positive service time in trace")
		}
		sum += float64(s)
	}
	return traceSampler{
		trace: append([]sim.Time(nil), trace...),
		mean:  sim.Time(sum/float64(len(trace)) + 0.5),
	}
}

func (s traceSampler) Name() string { return fmt.Sprintf("trace(n=%d)", len(s.trace)) }

// Mean returns the empirical mean of the trace — the value capacity
// planning (MaxLoad, MaxRateUnder grids) must use for
// trace-backed workloads.
func (s traceSampler) Mean() sim.Time { return s.mean }

//simvet:hotpath
func (s traceSampler) Sample(r *rng.Rand) sim.Time {
	return s.trace[r.Intn(len(s.trace))]
}

// paretoSampler is the Pareto (power-law) heavy-tail law: scale xm,
// tail index alpha. P(S > s) = (xm/s)^alpha for s >= xm; alpha must
// exceed 1 so the mean alpha·xm/(alpha-1) exists. Small alpha = heavy
// tail: alpha 1.4 puts ~10% of the load in the top 0.1% of requests.
type paretoSampler struct {
	xm    float64 // scale (minimum), ns
	alpha float64
}

func (s paretoSampler) Name() string {
	return fmt.Sprintf("pareto(mean=%v,alpha=%g)", s.Mean(), s.alpha)
}

func (s paretoSampler) Mean() sim.Time {
	return sim.Time(s.alpha*s.xm/(s.alpha-1) + 0.5)
}

//simvet:hotpath
func (s paretoSampler) Sample(r *rng.Rand) sim.Time {
	// Inversion: xm · u^(-1/alpha), u uniform in (0, 1].
	u := 1.0 - r.Float64()
	return sim.Time(s.xm*math.Pow(u, -1/s.alpha) + 0.5)
}

// lognormalSampler is the lognormal law: exp(mu + sigma·N(0,1)).
// sigma controls dispersion: the service-time CV is
// sqrt(exp(sigma²)-1), so sigma 1.5 gives CV ≈ 9.
type lognormalSampler struct {
	mu    float64 // log-scale location
	sigma float64
}

func (s lognormalSampler) Name() string {
	return fmt.Sprintf("lognormal(mean=%v,sigma=%g)", s.Mean(), s.sigma)
}

func (s lognormalSampler) Mean() sim.Time {
	return sim.Time(math.Exp(s.mu+s.sigma*s.sigma/2) + 0.5)
}

//simvet:hotpath
func (s lognormalSampler) Sample(r *rng.Rand) sim.Time {
	return sim.Time(math.Exp(s.mu+s.sigma*r.Normal()) + 0.5)
}

// serviceLaw describes one nameable service law for listings.
type serviceLaw struct {
	name    string
	summary string
}

var serviceLaws = []serviceLaw{
	{"det", "deterministic service time (params: s)"},
	{"exp", "exponential, CV=1 (params: mean)"},
	{"pareto", "Pareto power-law heavy tail (params: mean, alpha>1)"},
	{"lognormal", "lognormal heavy tail (params: mean, sigma)"},
}

// ServiceNames lists the nameable service laws with their parameter
// summaries, for -svc list catalogues. Trace-backed laws are built from
// data (FromTrace), not by name.
func ServiceNames() []string {
	out := make([]string, 0, len(serviceLaws))
	for _, l := range serviceLaws {
		out = append(out, fmt.Sprintf("%-10s %s", l.name, l.summary))
	}
	return out
}

// ParseService resolves a textual service law — "law" or
// "law:key=value,key=value" — into a sampler, the pifo.Parse idiom for
// the service axis. Durations accept Go syntax ("10us", "1.2ms");
// defaults are a 10µs mean, alpha 1.4, sigma 1.5.
//
//	det:s=10us
//	exp:mean=1us
//	pareto:mean=10us,alpha=1.4
//	lognormal:mean=10us,sigma=1.5
func ParseService(spec string) (ServiceSampler, error) {
	name, params, err := parseSpecParams(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case "det":
		s, err := params.duration("s", sim.Micros(10))
		if err != nil {
			return nil, err
		}
		if s <= 0 {
			return nil, fmt.Errorf("workload: det service time must be positive, got %v", s)
		}
		return deterministicSampler{s}, params.done()
	case "exp":
		mean, err := params.duration("mean", sim.Micros(10))
		if err != nil {
			return nil, err
		}
		if mean <= 0 {
			return nil, fmt.Errorf("workload: exp mean must be positive, got %v", mean)
		}
		return expSampler{mean}, params.done()
	case "pareto":
		mean, err := params.duration("mean", sim.Micros(10))
		if err != nil {
			return nil, err
		}
		alpha, err := params.float("alpha", 1.4)
		if err != nil {
			return nil, err
		}
		if alpha <= 1 {
			return nil, fmt.Errorf("workload: pareto alpha must exceed 1 (mean diverges), got %g", alpha)
		}
		if mean <= 0 {
			return nil, fmt.Errorf("workload: pareto mean must be positive, got %v", mean)
		}
		return paretoSampler{xm: float64(mean) * (alpha - 1) / alpha, alpha: alpha}, params.done()
	case "lognormal":
		mean, err := params.duration("mean", sim.Micros(10))
		if err != nil {
			return nil, err
		}
		sigma, err := params.float("sigma", 1.5)
		if err != nil {
			return nil, err
		}
		if mean <= 0 || sigma <= 0 {
			return nil, fmt.Errorf("workload: lognormal needs positive mean and sigma, got mean=%v sigma=%g", mean, sigma)
		}
		return lognormalSampler{mu: math.Log(float64(mean)) - sigma*sigma/2, sigma: sigma}, params.done()
	default:
		known := make([]string, 0, len(serviceLaws))
		for _, l := range serviceLaws {
			known = append(known, l.name)
		}
		return nil, fmt.Errorf("workload: unknown service law %q (known: %s)", name, strings.Join(known, ", "))
	}
}

// deterministicSampler is the det law as a sampler — only constructed
// by ParseService; workloads built from ClassInfo literals express
// deterministic service through the Service field with a nil Sampler,
// which draws nothing.
type deterministicSampler struct{ s sim.Time }

func (d deterministicSampler) Name() string              { return fmt.Sprintf("det(%v)", d.s) }
func (d deterministicSampler) Mean() sim.Time            { return d.s }
func (d deterministicSampler) Sample(*rng.Rand) sim.Time { return d.s }

// FromLaw builds a single-class workload whose service times follow the
// named law — the workload behind tqsim -svc. The class (and workload)
// is named after the law so reports are self-describing.
func FromLaw(spec string) (*Workload, error) {
	s, err := ParseService(spec)
	if err != nil {
		return nil, err
	}
	return New(s.Name(), []ClassInfo{{Name: "Req", Ratio: 1, Sampler: s}}), nil
}

// specParams is the parsed parameter set of a "name:k=v,k=v" spec,
// tracking consumption so unknown keys are reported.
type specParams struct {
	spec string
	kv   map[string]string
	used map[string]bool
}

// parseSpecParams splits "name" or "name:k=v,k=v,..." into the name and
// its parameter set.
func parseSpecParams(spec string) (string, *specParams, error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(spec), ":")
	p := &specParams{spec: spec, kv: map[string]string{}, used: map[string]bool{}}
	if !hasParams {
		return name, p, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("workload: bad parameter %q in %q (want key=value)", part, spec)
		}
		p.kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return name, p, nil
}

func (p *specParams) duration(key string, def sim.Time) (sim.Time, error) {
	v, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	p.used[key] = true
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("workload: bad %s in %q: want a duration like 10us, got %q", key, p.spec, v)
	}
	return sim.Time(d.Nanoseconds()), nil
}

func (p *specParams) float(key string, def float64) (float64, error) {
	v, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	p.used[key] = true
	var f float64
	if _, err := fmt.Sscanf(v, "%g", &f); err != nil {
		return 0, fmt.Errorf("workload: bad %s in %q: want a number, got %q", key, p.spec, v)
	}
	return f, nil
}

func (p *specParams) int(key string, def int) (int, error) {
	f, err := p.float(key, float64(def))
	if err != nil {
		return 0, err
	}
	return int(f), nil
}

// done reports unconsumed parameters — a typoed key would otherwise
// silently fall back to its default.
func (p *specParams) done() error {
	var unknown []string
	for k := range p.kv {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("workload: unknown parameter(s) %s in %q", strings.Join(unknown, ", "), p.spec)
}
