package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Len() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleMoments(t *testing.T) {
	s := NewSample(4)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := s.Max(); got != 4 {
		t.Fatalf("Max = %v, want 4", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileClampsRange(t *testing.T) {
	s := NewSample(2)
	s.Add(5)
	s.Add(10)
	if got := s.Quantile(-1); got != 5 {
		t.Fatalf("Quantile(-1) = %v, want 5", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Fatalf("Quantile(2) = %v, want 10", got)
	}
}

func TestQuantileAfterInterleavedAdds(t *testing.T) {
	s := NewSample(0)
	s.Add(3)
	s.Add(1)
	if got := s.Median(); got != 1 {
		t.Fatalf("median of {1,3} = %v, want 1 (nearest rank)", got)
	}
	s.Add(2) // must forget the ranks it had placed
	if got := s.Median(); got != 2 {
		t.Fatalf("median of {1,2,3} = %v, want 2", got)
	}
}

func TestP999OnLargeSample(t *testing.T) {
	s := NewSample(100000)
	for i := 0; i < 100000; i++ {
		s.Add(float64(i))
	}
	// Nearest rank: ceil(0.999*100000) = 99900 -> value 99899.
	if got := s.P999(); got != 99899 {
		t.Fatalf("P999 = %v, want 99899", got)
	}
}

func TestSampleReset(t *testing.T) {
	s := NewSample(2)
	s.Add(1)
	s.Reset()
	if s.Len() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear sample")
	}
	s.Add(7)
	if got := s.Mean(); got != 7 {
		t.Fatalf("Mean after reset+add = %v, want 7", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		s := NewSample(100)
		for i := 0; i < 100; i++ {
			s.Add(rr.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 6) // buckets: [0,1) [1,2) [2,4) [4,8) [8,16) [16,inf)
	for _, v := range []float64{0.5, 1, 3, 7, 9, 100} {
		h.Add(v)
	}
	want := []uint64{1, 1, 1, 1, 1, 1}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	h := NewHistogram(1024, 2, 16)
	for i := 0; i < 90; i++ {
		h.Add(100) // below base
	}
	for i := 0; i < 10; i++ {
		h.Add(10000) // well above 8192 boundary
	}
	got := h.FractionAbove(8192)
	if math.Abs(got-0.10) > 1e-9 {
		t.Fatalf("FractionAbove(8192) = %v, want 0.10", got)
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram did not panic")
		}
	}()
	NewHistogram(0, 2, 4)
}

func TestSeriesAppendAndString(t *testing.T) {
	var s Series
	s.Label = "tq"
	s.Append(1, 2)
	s.Append(3, 4)
	if len(s.X) != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Fatalf("unexpected series contents: %+v", s)
	}
	if got := s.String(); got != "tq\t1\t2\ntq\t3\t4\n" {
		t.Fatalf("String = %q", got)
	}
}

// sameFloat is == with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// TestQuantileSelectsWhatSortWould is the differential proof that
// selecting a rank reads the same observation a full sort.Float64s
// would put there — at every rank, asked in any order (so the brackets
// earlier answers leave behind are exercised), on the shapes that
// stress a quickselect: duplicates, constants, NaNs (which sort first),
// presorted runs, and two that defeat a median-of-three pivot and so
// reach the sort fallback.
func TestQuantileSelectsWhatSortWould(t *testing.T) {
	rr := rng.New(7)
	shapes := map[string]func(i, n int) float64{
		"random":         func(i, n int) float64 { return rr.Float64() * 1e6 },
		"constant":       func(i, n int) float64 { return 42 },
		"few values":     func(i, n int) float64 { return float64(rr.Intn(4)) },
		"mostly one":     func(i, n int) float64 { return float64(rr.Intn(50) / 49) },
		"ascending":      func(i, n int) float64 { return float64(i) },
		"descending":     func(i, n int) float64 { return float64(n - i) },
		"organ pipe":     func(i, n int) float64 { return float64(min(i, n-1-i)) },
		"median3 killer": median3Killer,
		"with NaNs": func(i, n int) float64 {
			if rr.Intn(5) == 0 {
				return math.NaN()
			}
			return rr.Normal()
		},
		"all NaN":    func(i, n int) float64 { return math.NaN() },
		"infinities": func(i, n int) float64 { return []float64{math.Inf(-1), -1, 0, 1, math.Inf(1), math.NaN()}[rr.Intn(6)] },
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 12, 13, 14, 100, 1000} {
			values := make([]float64, n)
			for i := range values {
				values[i] = gen(i, n)
			}
			want := append([]float64(nil), values...)
			sort.Float64s(want)

			// Each rank on a fresh sample: no brackets to lean on.
			for k := 0; k < n; k++ {
				s := sampleOf(values)
				if got := s.at(k); !sameFloat(got, want[k]) {
					t.Fatalf("%s n=%d: fresh sample rank %d = %v, sorted has %v", name, n, k, got, want[k])
				}
			}
			// Every rank on one sample, in shuffled order, then again:
			// each answer narrows the ranges later ones search.
			s := sampleOf(values)
			order := make([]int, n)
			rr.Perm(order)
			for pass := 0; pass < 2; pass++ {
				for _, k := range order {
					if got := s.at(k); !sameFloat(got, want[k]) {
						t.Fatalf("%s n=%d pass %d: rank %d = %v, sorted has %v (placed %v)", name, n, pass, k, got, want[k], s.placed)
					}
				}
			}
			if got := s.Min(); !sameFloat(got, want[0]) {
				t.Fatalf("%s n=%d: Min = %v, sorted[0] = %v", name, n, got, want[0])
			}
			if got := s.Max(); !sameFloat(got, want[n-1]) {
				t.Fatalf("%s n=%d: Max = %v, sorted[n-1] = %v", name, n, got, want[n-1])
			}
			// Selection only permutes: the observations are all still there.
			left := append([]float64(nil), s.Values()...)
			sort.Float64s(left)
			for i := range left {
				if !sameFloat(left[i], want[i]) {
					t.Fatalf("%s n=%d: selection changed the observations at sorted index %d", name, n, i)
				}
			}
		}
	}
}

func sampleOf(values []float64) *Sample {
	s := NewSample(len(values))
	for _, v := range values {
		s.Add(v)
	}
	return s
}

// median3Killer is Musser's sequence against a first/middle/last
// median-of-three pivot: every partition peels off two elements.
func median3Killer(i, n int) float64 {
	k := n / 2
	switch {
	case i >= k:
		return float64(2 * (i - k + 1))
	case i%2 == 0:
		return float64(i + 1)
	default:
		return float64(k + i + k%2)
	}
}

// TestSelectRankSortFallback pins that the shapes above really do
// exhaust the partition budget — otherwise the fallback is untested.
func TestSelectRankSortFallback(t *testing.T) {
	const n = 1000
	v := make([]float64, n)
	for i := range v {
		v[i] = median3Killer(i, n)
	}
	// With the budget spent, selectRank sorts what is left of the range,
	// so a long run around the rank comes out fully ordered — something
	// selection alone never does.
	selectRank(v, n/2)
	if !sort.Float64sAreSorted(v[n/2-100 : n/2+100]) {
		t.Fatal("200 elements around the selected rank are not sorted: the killer sequence no longer reaches the sort fallback")
	}
}
