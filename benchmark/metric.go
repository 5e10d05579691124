package main

import (
	"fmt"
	"math"
	"sort"
)

// Metric is one named measurement: its reported value with the median
// and quartiles of its samples and the sample count, so a reader can
// tell a resolved number from a noisy one.
type Metric struct {
	Unit string `json:"unit"`
	// Value is what the metric reports: the median of the samples.
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the per-repeat values; the full-run driver pools them
	// across passes.
	Samples []float64 `json:"samples,omitempty"`
	// Exact marks a count that must repeat bit-for-bit for a fixed seed.
	Exact bool `json:"exact,omitempty"`
}

// newMetric summarizes samples (at least one) of the named metric,
// which must be in the spec: the spec supplies its unit and whether it
// is an exact count.
func newMetric(name string, samples []float64) Metric {
	spec, ok := specByName(endToEnd, name)
	if !ok {
		if spec, ok = specByName(perLayer, name); !ok {
			panic("benchmark: metric " + name + " is not in the spec")
		}
	}
	m := summarize(spec.Unit, samples)
	m.Exact = exactLayer[name]
	return m
}

// summarize reports samples by their median.
func summarize(unit string, samples []float64) Metric {
	q1, med, q3 := quartiles(samples)
	return Metric{Unit: unit, Value: med, Q1: q1, Median: med, Q3: q3, N: len(samples), Samples: samples}
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure bounds are judged against.
func (m Metric) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Median)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so the numbers printed here are the ones the driver's
// acceptance rule computes. Fewer than two samples have no spread.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of the samples (0 when empty).
func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// finite checks that every listed metric is present and a real number
// — a division by a zero count would otherwise reach the output as NaN.
func finite(order []metricSpec, metrics map[string]Metric) error {
	for _, spec := range order {
		m, ok := metrics[spec.Name]
		if !ok {
			return fmt.Errorf("run produced no %s", spec.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", spec.Name, m.Value)
		}
	}
	return nil
}
