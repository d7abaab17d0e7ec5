package main

import (
	"math"
	"sort"
)

// tailMin is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer is the position of a handful of
// outliers, not a property of the system.
const tailMin = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailSamples is how many of n samples lie strictly beyond the nearest-rank
// p-quantile.
func tailSamples(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// supported reports whether n samples carry the p-quantile under the
// tailMin rule; p90 needs 100 samples.
func supported(n int, p float64) bool { return tailSamples(n, p) >= tailMin }

func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the midpoint median, the one Python's statistics.median and
// the driver use.
func median(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method), so
// a spread printed here is the one the driver will compute. It needs two
// values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 when there are too few values to have one.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(med)
}
