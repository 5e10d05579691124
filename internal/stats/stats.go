// Package stats provides the latency accounting used throughout the
// Tiny Quanta evaluation: a fixed-footprint quantile estimator, an exact
// one to check it against, and the small bookkeeping types the figures
// are assembled from.
//
// The paper reads one number per class out of a ten-second, multi-Mrps
// run — the 99.9th-percentile sojourn or slowdown — so what a run keeps
// is a Hist: a log-linear histogram whose quantiles are within
// HistRelErr (0.2 %) of the exact order statistics, whose Len, Min, Max
// and Mean are exact, and whose memory depends on the spread of the
// values, not on how many there were. Every run, fleet aggregate and
// trace summary records into that one type. Sample keeps every
// observation and answers with exact order statistics; it is the
// reference Hist is differentially tested against (FuzzHistVsSample),
// and what a test reaches for when it needs the exact answer.
// RunningMean is for observations only ever averaged; Histogram is the
// coarse geometric one behind the reuse-distance plots.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sample accumulates float64 observations and answers percentile and
// moment queries. The zero value is ready to use.
type Sample struct {
	values []float64
	sum    float64
	// placed lists, ascending, the ranks a Quantile has already put in
	// place: values[r] is what a full sort would leave there, nothing
	// before it orders after it and nothing after it before. The next
	// Quantile searches only between its neighbours in this list. Add
	// empties it.
	placed []int
}

// NewSample returns a Sample with capacity pre-allocated for n
// observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.placed = s.placed[:0]
}

// Len reports the number of recorded observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 if no observations were
// recorded.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Max returns the largest observation, or 0 if none were recorded.
// Like every order statistic here it uses package cmp's order, which is
// sort.Float64s's — ascending, NaNs before everything — so the result
// is the one a sorted sample would give.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return slices.MaxFunc(s.values, cmp.Compare[float64])
}

// Min returns the smallest observation, or 0 if none were recorded.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return slices.MinFunc(s.values, cmp.Compare[float64])
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method, or 0 if no observations were recorded. Quantile(0.999) is the
// paper's p99.9. Nearest-rank is an exact order statistic, so the
// sample is not sorted for it: the one rank is selected, in linear
// time, and the observations are left partially ordered around it.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.at(rank - 1)
}

// at returns the observation at 0-based rank k of the sorted sample.
func (s *Sample) at(k int) float64 {
	i, found := slices.BinarySearch(s.placed, k)
	if !found {
		// Ranks already in place bracket k: the values between them are
		// exactly the ones a sort would leave there.
		lo, hi := 0, len(s.values)
		if i > 0 {
			lo = s.placed[i-1] + 1
		}
		if i < len(s.placed) {
			hi = s.placed[i]
		}
		selectRank(s.values[lo:hi], k-lo)
		s.placed = slices.Insert(s.placed, i, k)
	}
	return s.values[k]
}

// selectRank rearranges v so that v[k] is the element sort.Float64s
// would put there, nothing before it orders after it and nothing after
// it before: quickselect on a median-of-three pivot. A range that fails
// to shrink geometrically (2·log2 n partitions without closing in) is
// sorted instead, which bounds the worst case at O(n log n).
func selectRank(v []float64, k int) {
	lo, hi := 0, len(v) // k's value lies in v[lo:hi]
	for budget := 2 * bits.Len(uint(len(v))); hi-lo > 12 && budget > 0; budget-- {
		// Order v[lo], v[mid], v[hi-1]; the median becomes the pivot
		// and the other two bound the scans below.
		mid := lo + (hi-lo)/2
		if cmp.Less(v[mid], v[lo]) {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if cmp.Less(v[hi-1], v[mid]) {
			v[hi-1], v[mid] = v[mid], v[hi-1]
			if cmp.Less(v[mid], v[lo]) {
				v[mid], v[lo] = v[lo], v[mid]
			}
		}
		v[lo], v[mid] = v[mid], v[lo]
		pivot := v[lo]
		// Both scans stop at elements equal to the pivot, so a run of
		// duplicates splits down the middle instead of to one side.
		i, j := lo+1, hi-1
		for {
			for i <= j && cmp.Less(v[i], pivot) {
				i++
			}
			for i <= j && cmp.Less(pivot, v[j]) {
				j--
			}
			if i >= j {
				break
			}
			v[i], v[j] = v[j], v[i]
			i++
			j--
		}
		v[lo], v[j] = v[j], v[lo]
		switch {
		case k < j:
			hi = j
		case k > j:
			lo = j + 1
		default:
			return
		}
	}
	sort.Float64s(v[lo:hi])
}

// P999 is shorthand for Quantile(0.999).
func (s *Sample) P999() float64 { return s.Quantile(0.999) }

// P99 is shorthand for Quantile(0.99).
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Median is shorthand for Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Values returns the recorded observations in unspecified order. The
// returned slice is owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 { return s.values }

// Reset discards all observations but keeps the allocated capacity.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.sum = 0
	s.placed = s.placed[:0]
}

// RunningMean accumulates a sum and a count: the estimator for
// observations whose only read-outs are Mean and Len, which a Sample
// would store one float64 apiece for. Its Mean is bit-identical to a
// Sample fed the same values in the same order. The zero value is
// ready to use.
type RunningMean struct {
	sum float64
	n   int
}

// Add records one observation.
func (m *RunningMean) Add(v float64) {
	m.sum += v
	m.n++
}

// Len reports the number of recorded observations.
func (m RunningMean) Len() int { return m.n }

// Mean returns the arithmetic mean, or 0 if no observations were
// recorded.
func (m RunningMean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram counts observations in geometrically spaced buckets; it is
// used for the reuse-distance plots (Figure 15) where the x-axis spans
// several orders of magnitude.
type Histogram struct {
	// Base is the lower bound of the first finite bucket; values below
	// it land in bucket 0.
	Base float64
	// Growth is the ratio between consecutive bucket upper bounds; it
	// must be > 1.
	Growth float64
	counts []uint64
	total  uint64
}

// NewHistogram returns a histogram whose bucket b (b >= 1) covers
// [base*growth^(b-1), base*growth^b); bucket 0 covers [0, base).
func NewHistogram(base, growth float64, buckets int) *Histogram {
	if base <= 0 || growth <= 1 || buckets < 1 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Base: base, Growth: growth, counts: make([]uint64, buckets)}
}

// Add records one observation; values beyond the last bucket are
// clamped into it.
func (h *Histogram) Add(v float64) {
	h.total++
	if v < h.Base {
		h.counts[0]++
		return
	}
	b := 1 + int(math.Floor(math.Log(v/h.Base)/math.Log(h.Growth)))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
}

// Total reports the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Buckets returns a copy of the per-bucket counts.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// BucketUpper returns the exclusive upper bound of bucket b.
func (h *Histogram) BucketUpper(b int) float64 {
	if b == 0 {
		return h.Base
	}
	return h.Base * math.Pow(h.Growth, float64(b))
}

// FractionAbove reports the fraction of observations with value >=
// threshold, computed from bucket boundaries (so threshold should align
// with a bucket edge for exact answers).
func (h *Histogram) FractionAbove(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	var above uint64
	for b, c := range h.counts {
		if h.BucketUpper(b) > threshold {
			above += c
		}
	}
	return float64(above) / float64(h.total)
}

// Series is a labelled (x, y) sequence, the common currency of the
// experiment drivers: one Series per curve in a paper figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// String renders the series as tab-separated rows, one per point.
func (s *Series) String() string {
	out := ""
	for i := range s.X {
		out += fmt.Sprintf("%s\t%g\t%g\n", s.Label, s.X[i], s.Y[i])
	}
	return out
}
