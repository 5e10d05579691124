package stats

import "math/bits"

// LatencyHist is a fixed-memory latency histogram with exact per-bucket
// counts, complementing the exact quantiles of Sample: unlike Sample it
// costs O(1) memory regardless of how many observations it absorbs — the
// right trade for always-on observability — and unlike a streaming
// estimator it never drifts under adversarial orderings.
//
// Buckets are HDR-style: each power-of-two major bucket is divided into
// 32 linear sub-buckets, so the quantile resolution is bounded by
// 1/32 ≈ 3.1% of the value everywhere on the range. Values are int64
// nanoseconds, matching sim.Time and the live runtime's monotonic
// clock. The zero value is ready to use.
type LatencyHist struct {
	counts [64 * histSub]uint64
	total  uint64
	sum    float64
	max    int64
	min    int64
}

// histSub is the number of linear sub-buckets per power-of-two range.
const histSub = 32

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		// The first two major buckets are exact: one bucket per value.
		return int(v)
	}
	// Major bucket = position of the highest set bit; sub-bucket = the
	// next 5 bits below it.
	high := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>(uint(high)-5)) & (histSub - 1)
	return (high-4)*histSub + sub
}

// histLower returns the inclusive lower bound of bucket i — the value
// reported for quantiles landing in it (a slight underestimate, never
// more than one sub-bucket width below the true quantile).
func histLower(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	major := i/histSub + 4
	sub := int64(i % histSub)
	return (1 << uint(major)) + sub<<(uint(major)-5)
}

// Add records one latency in nanoseconds. Negative values clamp to 0.
func (h *LatencyHist) Add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if h.total == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.counts[histIndex(ns)]++
	h.total++
	h.sum += float64(ns)
}

// Count reports the number of recorded observations.
func (h *LatencyHist) Count() uint64 { return h.total }

// Mean returns the exact arithmetic mean in nanoseconds, or 0 when
// empty.
func (h *LatencyHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the exact largest observation, or 0 when empty.
func (h *LatencyHist) Max() int64 { return h.max }

// Min returns the exact smallest observation, or 0 when empty.
func (h *LatencyHist) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile returns the q-quantile (0 <= q <= 1) in nanoseconds by the
// nearest-rank rule over the bucket boundaries; the answer is exact for
// values below 64ns and within one sub-bucket (≈3.1% relative) above.
// It returns 0 when empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			lo := histLower(i)
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// P50 is shorthand for Quantile(0.50).
func (h *LatencyHist) P50() int64 { return h.Quantile(0.50) }

// P99 is shorthand for Quantile(0.99).
func (h *LatencyHist) P99() int64 { return h.Quantile(0.99) }

// Merge adds every observation recorded by o into h. Min/Max/Mean and
// all bucket counts merge exactly.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset discards all observations.
func (h *LatencyHist) Reset() { *h = LatencyHist{} }
