// Package stats provides the small run-aggregation helpers used by the
// experiment harness: summary statistics and generation-indexed series
// averaging (the paper's figures average 5 runs; its tables take the best
// of 5).
package stats

import (
	"fmt"
	"math"
)

// Summary holds the usual aggregate statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes summary statistics. The standard deviation is the
// sample (n−1) form; it is 0 for n < 2.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// MeanSeries averages several generation-indexed series element-wise.
// Series may have different lengths; each position averages the series that
// reach it. An empty input returns nil.
func MeanSeries(series [][]float64) []float64 {
	var out []float64
	var count []int
	for _, s := range series {
		for i, v := range s {
			if i >= len(out) {
				out = append(out, 0)
				count = append(count, 0)
			}
			out[i] += v
			count[i]++
		}
	}
	for i := range out {
		out[i] /= float64(count[i])
	}
	return out
}

// Downsample keeps every stride-th element (plus the last), turning a long
// per-generation series into a printable figure column.
func Downsample(s []float64, stride int) []float64 {
	if stride <= 1 || len(s) == 0 {
		return append([]float64(nil), s...)
	}
	var out []float64
	for i := 0; i < len(s); i += stride {
		out = append(out, s[i])
	}
	if (len(s)-1)%stride != 0 {
		out = append(out, s[len(s)-1])
	}
	return out
}
