package stats

import "math"

// Hist is the estimator every run, fleet and trace summary records its
// latencies and slowdowns in: a log-linear histogram whose footprint
// depends on the spread of what it saw, not on how much it saw.
//
// Each power-of-two octave [2^e, 2^(e+1)) is cut into histSub equal
// sub-buckets — which is how an IEEE-754 double already lays its values
// out, exponent then mantissa, so a value's bucket is the top bits of
// its representation (bucketOf) and no logarithm is taken. A quantile is
// the nearest-rank order statistic ceil(q·n), as Sample's is, read from
// the bucket that rank falls in and reported as the bucket's midpoint:
// within HistRelErr of the order statistic an exact Sample would return
// (TestHistEveryBucketWithinBound walks every bucket to prove it). Len,
// Min and Max are exact, and the sum is accumulated in arrival order, so
// Mean is bit-identical to a Sample's or a RunningMean's.
//
// The octaves' count blocks are allocated when first touched: an empty
// Hist is a table of nil pointers, and a run whose sojourns span 2^9 to
// 2^24 ns holds fifteen 2 KB blocks however long it ran. Histograms
// Merge by addition. The zero value is ready to use.
type Hist struct {
	octave [histOctaves]*[histSub]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// LatencyHist is Hist under the name the frozen benchmark/ package
// imports it by.
type LatencyHist = Hist

const (
	histSubBits = 8
	// histSub is the number of linear sub-buckets per octave.
	histSub = 1 << histSubBits
	// The octaves cover [2^histMinExp, 2^histMaxExp): every slowdown
	// from 1/256 up and every int64 nanosecond count. What falls below
	// (zero, negatives, NaN) shares the first bucket and what lies above
	// (+Inf) the last; Min and Max still report them exactly.
	histMinExp  = -8
	histMaxExp  = 64
	histOctaves = histMaxExp - histMinExp
	histBuckets = histOctaves * histSub

	// histShift drops all but the top histSubBits of the mantissa;
	// histBase is bucket 0's position in that numbering (1023 is the
	// exponent bias).
	histShift = 52 - histSubBits
	histBase  = (1023 + histMinExp) << histSubBits
)

// HistRelErr bounds the relative error of every Hist quantile against
// the exact order statistic, for values in [2^-8, 2^64): a bucket in
// octave e is 2^(e-8) wide, its midpoint at most 2^(e-9) from anything
// in it, and everything in it is at least 2^e. (An int64 beyond 2^53 is
// first rounded to the nearest float64, 2^-53 more.) The read-out is
// also clamped to [Min, Max], which can only move it towards an order
// statistic that lies between them.
const HistRelErr = 1.0 / (2 * histSub)

// bucketOf maps a value to its bucket: octave and sub-bucket are the
// exponent and the leading mantissa bits of the double.
func bucketOf(v float64) int {
	b := uint(math.Float64bits(v)>>histShift) - histBase
	if b >= histBuckets {
		// Out of range either way round (the subtraction wraps below
		// 2^histMinExp; a sign bit or an all-ones exponent overshoots).
		if v >= 1 {
			return histBuckets - 1
		}
		return 0
	}
	return int(b)
}

// bucketMid returns the midpoint of bucket b, the value reported for a
// quantile that lands in it.
func bucketMid(b int) float64 {
	return math.Float64frombits(uint64(b+histBase)<<histShift | 1<<(histShift-1))
}

// Add records one latency in nanoseconds. Negative values clamp to 0.
func (h *Hist) Add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Observe(float64(ns))
}

// Observe records one observation of any unit — a slowdown ratio, or a
// latency already held as a float64.
func (h *Hist) Observe(v float64) {
	b := bucketOf(v)
	blk := h.octave[b>>histSubBits]
	if blk == nil {
		blk = h.grow(b >> histSubBits)
	}
	blk[b&(histSub-1)]++
	switch {
	case h.n == 0:
		h.min, h.max = v, v
	case v < h.min:
		h.min = v
	case v > h.max:
		h.max = v
	}
	h.n++
	h.sum += v
}

// grow allocates octave o's counts, on the first observation in it.
func (h *Hist) grow(o int) *[histSub]uint64 {
	h.octave[o] = new([histSub]uint64)
	return h.octave[o]
}

// Len reports the number of recorded observations.
func (h *Hist) Len() int { return int(h.n) }

// Mean returns the exact arithmetic mean, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the exact largest observation, or 0 when empty.
func (h *Hist) Max() float64 { return h.max }

// Min returns the exact smallest observation, or 0 when empty.
func (h *Hist) Min() float64 { return h.min }

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// rule Sample uses — the ceil(q·n)-th smallest observation — within
// HistRelErr of it, or 0 when empty. The first and last ranks are Min
// and Max, exactly.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(min(max(q, 0), 1) * float64(h.n)))
	if rank <= 1 {
		return h.min
	}
	if rank >= h.n {
		return h.max
	}
	var seen uint64
	for o, blk := range h.octave {
		if blk == nil {
			continue
		}
		for s, c := range blk {
			if seen += c; seen >= rank {
				return min(max(bucketMid(o<<histSubBits|s), h.min), h.max)
			}
		}
	}
	return h.max
}

// Median is shorthand for Quantile(0.5).
func (h *Hist) Median() float64 { return h.Quantile(0.5) }

// P99 is shorthand for Quantile(0.99).
func (h *Hist) P99() float64 { return h.Quantile(0.99) }

// P999 is shorthand for Quantile(0.999), the paper's p99.9.
func (h *Hist) P999() float64 { return h.Quantile(0.999) }

// Merge adds every observation recorded by o into h: counts, Len, Min
// and Max exactly as if h had recorded them itself, in any order of
// merging. The sum adds o's subtotal, so Mean equals the one-stream
// mean to rounding rather than bit for bit.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, src := range o.octave {
		if src == nil {
			continue
		}
		dst := h.octave[i]
		if dst == nil {
			dst = h.grow(i)
		}
		for s, c := range src {
			dst[s] += c
		}
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset discards all observations.
func (h *Hist) Reset() { *h = Hist{} }
