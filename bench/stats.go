package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one outlier's position, not a
// property of the distribution.
const minBeyond = 10

// supported reports whether n samples carry the q-quantile under the
// "at least minBeyond samples beyond it" rule.
func supported(n int, q float64) bool {
	// 1−q is not exact in binary (100 samples × (1−0.9) is a hair under
	// ten); the tolerance is far below one sample.
	return float64(n)*(1-q) >= minBeyond-1e-6
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest value with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
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

// latencies collects one operation class's samples, in milliseconds.
type latencies struct {
	ms     []float64
	sorted bool
}

func (l *latencies) add(ms float64) {
	l.ms = append(l.ms, ms)
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.sorted = false
}

func (l *latencies) n() int { return len(l.ms) }

// q returns the q-quantile in milliseconds, and whether the sample
// count supports reporting it.
func (l *latencies) q(q float64) (float64, bool) {
	if !l.sorted {
		sort.Float64s(l.ms)
		l.sorted = true
	}
	return quantile(l.ms, q), supported(len(l.ms), math.Max(q, 1-q))
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does
// (exclusive method), which is what the acceptance rule is stated in.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
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
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return data[n/2]
	default:
		return (data[n/2-1] + data[n/2]) / 2
	}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against. One value has
// no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / m)
}
