package cluster

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sojournTap is an obs.Recorder that recovers every in-window
// completion's sojourn from the timeline alone — Arrive and Finish
// events, nothing the metrics recorder computed — in completion order.
// One FCFS worker finishes tasks in the order they arrived, so a FIFO of
// arrivals is the whole state.
type sojournTap struct {
	warmup, end int64
	arrivals    []obs.Event
	head        int
	sojourns    []float64
	outOfOrder  int
}

func (s *sojournTap) Emit(e obs.Event) {
	switch e.Kind {
	case obs.Arrive:
		s.arrivals = append(s.arrivals, e)
	case obs.Finish:
		a := s.arrivals[s.head]
		s.head++
		if s.head == len(s.arrivals) {
			s.arrivals, s.head = s.arrivals[:0], 0
		}
		if a.Task != e.Task {
			s.outOfOrder++
		}
		// The window metrics.record applies.
		if a.T >= s.warmup && e.T <= s.end {
			s.sojourns = append(s.sojourns, float64(e.T-a.T))
		}
	}
}

// TestMM1SojournQuantiles anchors the simulator to a closed form it did
// not produce: one d-FCFS worker with no mechanism cost, Poisson
// arrivals at rate λ and Exp service at rate μ is M/M/1-FCFS, whose
// sojourn time is exponential with rate μ-λ — P(T>t) = e^{-(μ-λ)t},
// mean 1/(μ-λ). The Result's mean, p50, p99 and p99.9 must each lie
// within a confidence interval of the analytic value, and the interval
// comes from the run itself: the completions, recovered from the
// timeline by sojournTap, are cut into mm1Batches consecutive batches
// and the spread of the per-batch estimates gives the standard error
// (batch means). Nothing here is tuned to make the run pass.
func TestMM1SojournQuantiles(t *testing.T) {
	const (
		mm1Batches = 20
		// Student-t, 19 degrees of freedom, two-sided 99.9 %: chosen
		// before the first run so that the eight comparisons below
		// together raise a false alarm under 1 % of seeds.
		tCrit = 3.883
	)
	w, err := workload.FromLaw("exp:mean=1us")
	if err != nil {
		t.Fatal(err)
	}
	m := NewDFCFS(DFCFSParams{Workers: 1, ProcCost: 0, RXQueue: 1 << 20})
	for _, rho := range []float64{0.5, 0.8} {
		cfg := RunConfig{
			Workload: w,
			Rate:     rho * 1e6, // μ = 1e6/s
			Duration: 2600 * sim.Millisecond,
			Warmup:   100 * sim.Millisecond,
			Seed:     21,
		}
		tap := &sojournTap{warmup: int64(cfg.Warmup), end: int64(cfg.Duration)}
		cfg.Obs = tap
		res := m.Run(cfg)
		c := res.Class("Req")
		if res.Dropped != 0 || tap.outOfOrder != 0 {
			t.Fatalf("rho=%.1f: %d drops, %d completions out of arrival order; not an M/M/1-FCFS queue", rho, res.Dropped, tap.outOfOrder)
		}
		if int(c.Count) != len(tap.sojourns) || c.Sojourn.Len() != len(tap.sojourns) {
			t.Fatalf("rho=%.1f: result counts %d completions (%d recorded), the timeline %d", rho, c.Count, c.Sojourn.Len(), len(tap.sojourns))
		}
		// The mean is exact whatever the quantile estimator: the same
		// values summed in the same order.
		var sum float64
		for _, v := range tap.sojourns {
			sum += v
		}
		if got, want := c.Sojourn.Mean(), sum/float64(len(tap.sojourns)); got != want {
			t.Errorf("rho=%.1f: Result mean %v, timeline mean %v; want bit-identical", rho, got, want)
		}

		theta := (1 - rho) / 1000 // μ-λ per ns
		type check struct {
			name     string
			analytic float64
			got      float64
			of       func(*stats.Sample) float64
		}
		checks := []check{
			{"mean", 1 / theta, c.Sojourn.Mean(), (*stats.Sample).Mean},
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			checks = append(checks, check{
				name:     "p" + strconv.FormatFloat(100*q, 'g', -1, 64),
				analytic: -math.Log(1-q) / theta,
				got:      c.Sojourn.Quantile(q),
				of:       func(s *stats.Sample) float64 { return s.Quantile(q) },
			})
		}
		size := len(tap.sojourns) / mm1Batches
		batch := stats.NewSample(size)
		for _, ck := range checks {
			var est stats.RunningMean
			var sq float64
			per := make([]float64, mm1Batches)
			for b := range per {
				batch.Reset()
				for _, v := range tap.sojourns[b*size : (b+1)*size] {
					batch.Add(v)
				}
				per[b] = ck.of(batch)
				est.Add(per[b])
			}
			for _, v := range per {
				sq += (v - est.Mean()) * (v - est.Mean())
			}
			half := tCrit * math.Sqrt(sq/(mm1Batches-1)/mm1Batches)
			t.Logf("rho=%.1f %-5s analytic %9.1f ns, run %9.1f ns (%+.2f%%), 99.9%% CI ±%.2f%% from %d batches of %d",
				rho, ck.name, ck.analytic, ck.got, 100*(ck.got/ck.analytic-1), 100*half/ck.analytic, mm1Batches, size)
			if math.Abs(ck.got-ck.analytic) > half {
				t.Errorf("rho=%.1f %s: run %.1f ns, M/M/1 %.1f ns: off by %.1f ns, outside the run's own ±%.1f ns",
					rho, ck.name, ck.got, ck.analytic, ck.got-ck.analytic, half)
			}
		}
	}
}
