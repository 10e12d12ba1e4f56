package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
)

// sameGraph reports the first field in which a and b differ bit for bit:
// offsets, adjacency, edge and node weights, coordinates, edge count, total
// node weight or content hash.
func sameGraph(a, b *graph.Graph) error {
	ao, aa, aew, anw, ac := graph.Raw(a)
	bo, ba, bew, bnw, bc := graph.Raw(b)
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !slices.Equal(ao, bo):
		return fmt.Errorf("offsets differ")
	case !slices.Equal(aa, ba):
		return fmt.Errorf("adjacency differs")
	case len(aew) != len(bew) || len(anw) != len(bnw) || len(ac) != len(bc) || (ac == nil) != (bc == nil):
		return fmt.Errorf("array lengths differ")
	case a.NumEdges() != b.NumEdges():
		return fmt.Errorf("NumEdges %d vs %d", a.NumEdges(), b.NumEdges())
	case !bits(a.TotalNodeWeight(), b.TotalNodeWeight()):
		return fmt.Errorf("TotalNodeWeight %v vs %v", a.TotalNodeWeight(), b.TotalNodeWeight())
	}
	for i := range aew {
		if !bits(aew[i], bew[i]) {
			return fmt.Errorf("edge weight %d: %v vs %v", i, aew[i], bew[i])
		}
	}
	for i := range anw {
		if !bits(anw[i], bnw[i]) {
			return fmt.Errorf("node weight %d: %v vs %v", i, anw[i], bnw[i])
		}
	}
	for i := range ac {
		if !bits(ac[i].X, bc[i].X) || !bits(ac[i].Y, bc[i].Y) {
			return fmt.Errorf("coord %d: %v vs %v", i, ac[i], bc[i])
		}
	}
	if ha, hb := service.GraphHash(a), service.GraphHash(b); ha != hb {
		return fmt.Errorf("GraphHash %s vs %s", ha, hb)
	}
	return nil
}

// Build and FromEdges must reproduce the pre-FromEdges Build bit for bit on
// random edge sets: sparse and dense, with isolated nodes, fractional
// weights, either orientation, and with and without coordinates (some nodes
// never given one).
func TestBuildAndFromEdgesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		b := graph.NewBuilder(n)
		coords := trial%3 == 0
		for v := 0; v < n; v++ {
			b.SetNodeWeight(v, rng.Float64()*5)
			if coords && rng.Intn(4) > 0 {
				b.SetCoord(v, graph.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()})
			}
		}
		var us, vs []int32
		var ws []float64
		if n >= 2 {
			p := []float64{0.02, 0.2, 0.9}[trial%3] // sparse leaves isolated nodes
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						w := 0.25 + rng.ExpFloat64()
						if rng.Intn(2) == 0 { // either orientation
							us, vs = append(us, int32(v)), append(vs, int32(u))
							b.AddEdge(u, v, w)
						} else {
							us, vs = append(us, int32(u)), append(vs, int32(v))
							b.AddEdge(v, u, w)
						}
						ws = append(ws, w)
					}
				}
			}
		}
		// FromEdges sees the edges in a shuffled order; sorted rows make the
		// order irrelevant.
		rng.Shuffle(len(us), func(i, j int) {
			us[i], us[j] = us[j], us[i]
			vs[i], vs[j] = vs[j], vs[i]
			ws[i], ws[j] = ws[j], ws[i]
		})
		ref := graph.RefBuild(b)
		built := b.Build()
		if err := sameGraph(ref, built); err != nil {
			t.Fatalf("trial %d: Build vs reference: %v", trial, err)
		}
		_, _, _, nw, c := graph.Raw(ref)
		nw = append([]float64(nil), nw...)
		if c != nil {
			c = append([]graph.Point(nil), c...)
		}
		fe, err := graph.FromEdges(us, vs, ws, nw, c)
		if err != nil {
			t.Fatalf("trial %d: FromEdges: %v", trial, err)
		}
		if err := sameGraph(ref, fe); err != nil {
			t.Fatalf("trial %d: FromEdges vs reference: %v", trial, err)
		}
		if err := fe.Validate(); err != nil {
			t.Fatalf("trial %d: FromEdges result fails Validate: %v", trial, err)
		}
		// A built graph is a snapshot: later Builder edits must not reach it.
		if n > 0 {
			b.SetNodeWeight(0, 99)
			b.SetCoord(0, graph.Point{X: 99, Y: 99})
			if err := sameGraph(ref, built); err != nil {
				t.Fatalf("trial %d: Builder edit reached the built graph: %v", trial, err)
			}
		}
	}
}

func TestFromEdgesRefuses(t *testing.T) {
	nw := func(n int) []float64 { return make([]float64, n) }
	for name, c := range map[string]struct {
		us, vs []int32
		n      int
		coords []graph.Point
	}{
		"self loop":          {[]int32{0, 2}, []int32{1, 2}, 3, nil},
		"end past n":         {[]int32{0}, []int32{3}, 3, nil},
		"negative end":       {[]int32{-1}, []int32{0}, 3, nil},
		"duplicate":          {[]int32{0, 1, 0}, []int32{1, 2, 1}, 3, nil},
		"duplicate flipped":  {[]int32{0, 1, 2}, []int32{1, 2, 1}, 3, nil},
		"coords length":      {[]int32{0}, []int32{1}, 3, make([]graph.Point, 2)},
		"endpoint lengths":   {[]int32{0, 1}, []int32{1}, 3, nil},
		"n=0 with an edge":   {[]int32{0}, []int32{1}, 0, nil},
		"duplicate on a hub": {[]int32{0, 0, 0, 0, 4}, []int32{1, 2, 3, 4, 0}, 5, nil},
	} {
		ws := make([]float64, len(c.vs))
		for i := range ws {
			ws[i] = 1
		}
		if g, err := graph.FromEdges(c.us, c.vs, ws, nw(c.n), c.coords); err == nil {
			t.Errorf("%s: accepted (%d nodes, %d edges)", name, g.NumNodes(), g.NumEdges())
		}
	}
}
