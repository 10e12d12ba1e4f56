package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single summary %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestMeanSeries(t *testing.T) {
	out := MeanSeries([][]float64{{1, 2, 3}, {3, 4}})
	want := []float64{2, 3, 3}
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if MeanSeries(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestDownsample(t *testing.T) {
	s := []float64{0, 1, 2, 3, 4, 5, 6}
	out := Downsample(s, 3)
	want := []float64{0, 3, 6}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v", i, out[i])
		}
	}
	// Last element kept even off-stride.
	out = Downsample([]float64{0, 1, 2, 3, 4}, 3)
	if out[len(out)-1] != 4 {
		t.Errorf("last element dropped: %v", out)
	}
	// Stride 1 copies.
	out = Downsample(s, 1)
	if len(out) != len(s) {
		t.Errorf("stride-1 length %d", len(out))
	}
	out[0] = 99
	if s[0] == 99 {
		t.Error("Downsample aliases input")
	}
}

// Property: mean is within [min, max]; std >= 0.
func TestQuickSummaryBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(28))}); err != nil {
		t.Error(err)
	}
}

// Property: MeanSeries of ragged series has the longest series' length and
// lies element-wise at or above the minimum of the series present there.
func TestQuickMinLEMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		series := make([][]float64, k)
		longest := 0
		for i := range series {
			m := 1 + rng.Intn(20)
			longest = max(longest, m)
			series[i] = make([]float64, m)
			for j := range series[i] {
				series[i][j] = rng.Float64() * 10
			}
		}
		me := MeanSeries(series)
		if len(me) != longest {
			return false
		}
		for i := range me {
			mn := math.Inf(1)
			for _, s := range series {
				if i < len(s) {
					mn = min(mn, s[i])
				}
			}
			if mn > me[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}
