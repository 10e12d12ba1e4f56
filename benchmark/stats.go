package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples; 0 for
// no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile by the
// same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method, which extrapolates past the extremes for tiny samples), so spreads
// printed here match the ones computed over runs with that function. It
// needs at least two samples; with fewer it returns the single sample (or 0)
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		v := median(s)
		return v, v, v
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100); 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailPercentiles are the percentiles a timing may report beyond its median,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of n samples that has at
// least ten samples beyond it, and false when even the median has fewer. A
// percentile with fewer samples past it is a guess about one or two
// outliers, not a measurement.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
