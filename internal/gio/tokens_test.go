package gio

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// FuzzTokens pins the readers' token grammar to the standard library's: on
// any bytes, atoi accepts exactly when strconv.Atoi does and parseWeight
// exactly when parseFinite does, with the same value (to the bit, so -0
// stays -0). The METIS, edge-list and text readers take every integer and
// weight through these, so this covers the token grammar of all three at
// once.
func FuzzTokens(f *testing.F) {
	seeds := []string{
		"", "0", "-0", "+0", "+", "-", "--1", "+-1", "007", "123", "-123",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"123456789012345678", "1234567890123456789", "99999999999999999999",
		"9007199254740991", "9007199254740992", "9007199254740993",
		"00000000000000000000000000001",
		"1e3", "1.5", ".5", "5.", "0x10", "0b1", "1_000", "١",
		"NaN", "nan", "Inf", "-Inf", "infinity", "1e400", "4e-400",
		" 1", "1 ", "\t5", "5\r", "1 2 3", "7  8\t9\r", "12 x3 45",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := string(data)
		n, ok := atoi(data)
		want, err := strconv.Atoi(s)
		if ok != (err == nil) || (ok && n != want) {
			t.Fatalf("atoi(%q) = %d, %v; strconv.Atoi gives %d, %v", s, n, ok, want, err)
		}
		w, werr := parseWeight(data)
		wwant, err := parseFinite(s)
		if (werr == nil) != (err == nil) || (werr == nil && math.Float64bits(w) != math.Float64bits(wwant)) {
			t.Fatalf("parseWeight(%q) = %v, %v; parseFinite gives %v, %v", s, w, werr, wwant, err)
		}
	})
}

// No reader allocates per line: growing a graph eightfold adds only the
// logarithmic growth steps of its arrays to a read's allocation count, not
// thousands of line or token strings. The graphs carry fractional node
// weights and coordinates (text) and non-unit edge weights, so weights take
// parseWeight's fallback through parseFinite as well as its fast path.
func TestReadersAllocateNothingPerLine(t *testing.T) {
	allocs := func(f Format, n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		b := graph.NewBuilder(n)
		last := map[[2]int]float64{} // a pair drawn twice keeps its last weight
		for v := 0; v < n; v++ {
			b.SetCoord(v, graph.Point{X: rng.Float64(), Y: rng.Float64()})
			if f != FormatMETIS { // METIS weights are integral
				b.SetNodeWeight(v, float64(rng.Intn(3))+0.5)
			}
			for k := 0; k < 3; k++ {
				if u := rng.Intn(n); u != v {
					last[[2]int{min(u, v), max(u, v)}] = float64(1 + rng.Intn(5))
				}
			}
		}
		for e, w := range last { // the built graph does not depend on edge order
			b.AddEdge(e[0], e[1], w)
		}
		var buf bytes.Buffer
		if err := WriteGraph(f, &buf, b.Build()); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(2, func() {
			if _, err := ReadGraph(f, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, f := range []Format{FormatMETIS, FormatEdgeList, FormatText} {
		small, large := allocs(f, 1000), allocs(f, 8000)
		if large-small > 40 {
			t.Errorf("%v: %.0f allocations for 1000 nodes, %.0f for 8000: some grow with the lines", f, small, large)
		}
	}
}
