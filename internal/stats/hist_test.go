package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// bucketLow returns the inclusive lower edge of bucket b (for b ==
// histBuckets, the exclusive upper edge of the range).
func bucketLow(b int) float64 {
	return math.Float64frombits(uint64(b+histBase) << histShift)
}

// readBucket puts v between two sentinels — 0 in the first bucket,
// MaxFloat64 in the last — and reads the median back: rank 2 of 3, so
// the answer is v's bucket's own read-out, not a clamp to Min or Max.
func readBucket(h *Hist, add func()) float64 {
	h.Reset()
	h.Observe(0)
	add()
	h.Observe(math.MaxFloat64)
	return h.Median()
}

// TestHistEveryBucketWithinBound is the proof behind HistRelErr, by
// exhaustion rather than by sampling: for every one of the histogram's
// buckets, the first, the middle and the last float64 it holds, and the
// first and last integer nanosecond count, land in that bucket and read
// back within HistRelErr of themselves. Every value in a bucket lies
// between its first and last, and the read-out is one number per bucket,
// so what holds at both ends holds in between.
func TestHistEveryBucketWithinBound(t *testing.T) {
	if HistRelErr > 0.005 {
		t.Fatalf("HistRelErr = %v, the stated bound is 0.5 %%", HistRelErr)
	}
	var h Hist
	check := func(b int, v, got float64) {
		t.Helper()
		if math.Abs(got-v) > HistRelErr*v {
			t.Fatalf("bucket %d: %v (%#x) read back as %v, off by %.4f%% > %.4f%%",
				b, v, math.Float64bits(v), got, 100*math.Abs(got-v)/v, 100*HistRelErr)
		}
	}
	for b := 0; b < histBuckets; b++ {
		lo, next := bucketLow(b), bucketLow(b+1)
		if b%histSub == 0 {
			// Octave edge: a power of two opens the octave, and the
			// float64 just below it closes the one before.
			if want := math.Ldexp(1, b/histSub+histMinExp); lo != want {
				t.Fatalf("octave %d starts at %v, want %v", b/histSub, lo, want)
			}
			if b > 0 && bucketOf(math.Nextafter(lo, 0)) != b-1 {
				t.Fatalf("the float64 below %v is not in bucket %d", lo, b-1)
			}
		}
		for _, v := range []float64{lo, lo + (next-lo)/2, math.Nextafter(next, 0)} {
			if got := bucketOf(v); got != b {
				t.Fatalf("bucketOf(%v) = %d, want %d", v, got, b)
			}
			check(b, v, bucketMid(b))
			check(b, v, readBucket(&h, func() { h.Observe(v) }))
		}
		// Integer nanoseconds, as Add takes them. Below 2^53 the
		// conversion to float64 is exact; above, it rounds to a float64
		// this walk has covered, 2^-53 away.
		if next <= 1 || lo >= 1<<63 {
			continue
		}
		first, last := int64(math.Ceil(lo)), int64(math.MaxInt64)
		if next < 1<<63 {
			last = int64(math.Ceil(next)) - 1
		}
		for _, ns := range []int64{first, last} {
			if ns < first {
				continue // the bucket holds no integer
			}
			got := readBucket(&h, func() { h.Add(ns) })
			check(b, float64(ns), got)
			// One integer per bucket up to 2·histSub: exact once
			// truncated back to a nanosecond count.
			if ns < 2*histSub && int64(got) != ns {
				t.Fatalf("%d ns read back as %v: integers below %d must be exact", ns, got, 2*histSub)
			}
		}
	}
	// Outside the range nothing is lost but resolution: the ends absorb
	// it and Min/Max stay exact.
	for _, c := range []struct {
		v    float64
		want int
	}{
		{0, 0}, {-1, 0}, {math.NaN(), 0}, {math.Inf(-1), 0}, {math.SmallestNonzeroFloat64, 0},
		{math.Ldexp(1, histMinExp-1), 0}, {math.Ldexp(1, histMaxExp), histBuckets - 1},
		{math.MaxFloat64, histBuckets - 1}, {math.Inf(1), histBuckets - 1},
	} {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// streamOf decodes fuzz input into a stream of positive float64s
// spanning the histogram's whole range: every eight bytes are a
// double's bits with the exponent folded into [histMinExp, histMaxExp).
func streamOf(data []byte) []float64 {
	var out []float64
	for ; len(data) >= 8; data = data[8:] {
		bits := binary.LittleEndian.Uint64(data)
		exp := (bits>>52&0x7ff)%histOctaves + (1023 + histMinExp)
		out = append(out, math.Float64frombits(exp<<52|bits&(1<<52-1)))
	}
	return out
}

var histQuantiles = []float64{0, 0.5, 0.99, 0.999, 1}

// checkAgainstSample holds a Hist to the exact Sample fed the same
// stream: quantiles within HistRelErr, everything else equal.
func checkAgainstSample(t *testing.T, h *Hist, s *Sample) {
	t.Helper()
	if h.Len() != s.Len() || h.Min() != s.Min() || h.Max() != s.Max() || h.Mean() != s.Mean() {
		t.Fatalf("len/min/max/mean %d/%v/%v/%v, exact %d/%v/%v/%v",
			h.Len(), h.Min(), h.Max(), h.Mean(), s.Len(), s.Min(), s.Max(), s.Mean())
	}
	for _, q := range histQuantiles {
		got, want := h.Quantile(q), s.Quantile(q)
		if math.Abs(got-want) > HistRelErr*want {
			t.Fatalf("n=%d q=%v: %v, exact %v: off by %.4f%% > %.4f%%", s.Len(), q, got, want, 100*math.Abs(got-want)/want, 100*HistRelErr)
		}
	}
}

// FuzzHistVsSample is the differential test: whatever positive stream
// the fuzzer invents, the histogram and the exact sample agree — and
// the stream split at any point into two histograms merges back to the
// same buckets.
func FuzzHistVsSample(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1)), uint16(0))
	seed := rng.New(5)
	var long []byte
	for i := 0; i < 3000; i++ {
		long = binary.LittleEndian.AppendUint64(long, math.Float64bits(seed.Exp(1000)))
	}
	f.Add(long, uint16(1234))
	f.Add(long[:8*1000], uint16(999))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		values := streamOf(data)
		var h, head, tail Hist
		s := NewSample(len(values))
		split := 0
		if len(values) > 0 {
			split = int(cut) % len(values)
		}
		for i, v := range values {
			h.Observe(v)
			s.Add(v)
			if i < split {
				head.Observe(v)
			} else {
				tail.Observe(v)
			}
		}
		checkAgainstSample(t, &h, s)
		head.Merge(&tail)
		if !sameCounts(&head, &h) {
			t.Fatalf("stream of %d split at %d does not merge back to the same histogram", len(values), split)
		}
	})
}

// sameCounts reports whether two histograms hold the same observations
// as far as a histogram can tell: every bucket, Len, Min and Max.
func sameCounts(a, b *Hist) bool {
	if a.n != b.n || a.min != b.min || a.max != b.max {
		return false
	}
	for o := range a.octave {
		x, y := a.octave[o], b.octave[o]
		switch {
		case x == nil && y == nil:
		case x == nil || y == nil || *x != *y:
			return false
		}
	}
	return true
}

func TestLatencyHistExactBelow64(t *testing.T) {
	var h LatencyHist
	for v := int64(0); v < 64; v++ {
		h.Add(v)
	}
	if h.Len() != 64 {
		t.Fatalf("count %d, want 64", h.Len())
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max %v/%v, want 0/63", h.Min(), h.Max())
	}
	// Small integers have a bucket each, so the nearest-rank quantile —
	// rank ceil(q·n), value rank-1 here — is exact to the nanosecond.
	for q, want := range map[float64]int64{0.5: 31, 0.25: 15, 0.26: 16, 0.999: 63} {
		if got := int64(h.Quantile(q)); got != want {
			t.Errorf("q=%v: %d ns, want %d", q, got, want)
		}
	}
}

// TestLatencyHistQuantileError runs the differential check on the
// shapes the simulator produces — exponential, bimodal three decades
// apart, heavy-tailed, and ratios just above 1 — at sizes where p99.9
// is an interior rank.
func TestLatencyHistQuantileError(t *testing.T) {
	r := rng.New(7)
	streams := []struct {
		name string
		draw func() float64
	}{
		{"exp", func() float64 { return float64(int64(r.Exp(50000))) }},
		{"bimodal", func() float64 { return []float64{500, 500000}[r.Intn(2)] + float64(r.Intn(100)) }},
		{"pareto", func() float64 { return 1000 / math.Pow(1-r.Float64(), 1/1.2) }},
		{"slowdown", func() float64 { return 1 + r.Exp(0.3) }},
	}
	for _, st := range streams {
		for _, n := range []int{1, 2, 999, 20000} {
			var h Hist
			s := NewSample(n)
			for i := 0; i < n; i++ {
				v := st.draw()
				h.Observe(v)
				s.Add(v)
			}
			t.Run(fmt.Sprintf("%s/n=%d", st.name, n), func(t *testing.T) { checkAgainstSample(t, &h, s) })
		}
	}
}

func TestLatencyHistEdgeCases(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Len() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Add(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.Len() != 1 {
		t.Fatalf("negative add: min=%v max=%v n=%d", h.Min(), h.Max(), h.Len())
	}
	h.Reset()
	if h.Len() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	// A single value: every quantile collapses to it, whatever bucket
	// midpoint it fell next to.
	h.Add(1<<40 + 12345)
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if got := h.Quantile(q); got != 1<<40+12345 {
			t.Fatalf("single-value Quantile(%v) = %v, want %d", q, got, int64(1)<<40+12345)
		}
	}
	// Values no latency or slowdown takes still record without a panic.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0, math.MaxFloat64} {
		h.Observe(v)
	}
	if h.Len() != 7 || h.Max() != math.Inf(1) || h.Min() != math.Inf(-1) {
		t.Fatalf("after hostile values: n=%d min=%v max=%v", h.Len(), h.Min(), h.Max())
	}
}

// TestLatencyHistMerge: merging is adding. Two halves of a stream merge
// to the histogram of the whole stream, and parts merge to the same
// thing in any order.
func TestLatencyHistMerge(t *testing.T) {
	r := rng.New(11)
	var all Hist
	parts := make([]Hist, 3)
	for i := 0; i < 30000; i++ {
		v := r.Exp(20000) * float64(1+i%3*100) // the parts differ in scale
		all.Observe(v)
		parts[i%3].Observe(v)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {1, 0, 2}} {
		var got Hist
		for _, p := range order {
			got.Merge(&parts[p])
		}
		if !sameCounts(&got, &all) {
			t.Fatalf("parts merged in order %v differ from the one-stream histogram", order)
		}
		for _, q := range histQuantiles {
			if got.Quantile(q) != all.Quantile(q) {
				t.Fatalf("order %v q=%v: merged %v, direct %v", order, q, got.Quantile(q), all.Quantile(q))
			}
		}
		// The sum is a sum of subtotals: equal to rounding.
		if math.Abs(got.Mean()-all.Mean()) > 1e-12*all.Mean() {
			t.Fatalf("order %v: merged mean %v, direct %v", order, got.Mean(), all.Mean())
		}
	}
	// Merging nothing, and merging into nothing.
	var empty, into Hist
	all.Merge(&empty)
	into.Merge(&all)
	if all.Len() != 30000 || !sameCounts(&into, &all) || into.Mean() != all.Mean() {
		t.Fatal("merging with an empty histogram changed it")
	}
	// Two parts commute bit for bit, mean included.
	var ab, ba Hist
	ab.Merge(&parts[0])
	ab.Merge(&parts[1])
	ba.Merge(&parts[1])
	ba.Merge(&parts[0])
	if ab.Mean() != ba.Mean() {
		t.Fatalf("a+b mean %v, b+a mean %v", ab.Mean(), ba.Mean())
	}
}

// TestHistAllocFootprint guards what the type is for: an unused
// histogram is a few hundred bytes, and a used one stops allocating
// once the octaves its values span exist — half a million more
// observations cost nothing.
func TestHistAllocFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Hist{}); size > 1024 {
		t.Errorf("an empty Hist is %d bytes, want <= 1024: set-up zeroes one per class per run", size)
	}
	r := rng.New(3)
	values := make([]float64, 100000)
	for i := range values {
		values[i] = r.Exp(5000)
	}
	var h Hist
	for _, v := range values {
		h.Observe(v)
	}
	blocks := 0
	for _, blk := range h.octave {
		if blk != nil {
			blocks++
		}
	}
	if blocks > 24 {
		t.Errorf("an exponential stream touched %d octaves, want <= 24", blocks)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for _, v := range values {
			h.Observe(v)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations re-recording a stream whose octaves exist, want 0", allocs)
	}
}
