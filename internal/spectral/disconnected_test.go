package spectral

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// union builds the disjoint union of two graphs (no edges between them).
func union(a, b *graph.Graph) *graph.Graph {
	nb := graph.NewBuilder(a.NumNodes() + b.NumNodes())
	for v := 0; v < a.NumNodes(); v++ {
		nb.SetNodeWeight(v, a.NodeWeight(v))
	}
	off := a.NumNodes()
	for v := 0; v < b.NumNodes(); v++ {
		nb.SetNodeWeight(off+v, b.NodeWeight(v))
	}
	a.Edges(func(u, v int, w float64) bool { nb.AddEdge(u, v, w); return true })
	b.Edges(func(u, v int, w float64) bool { nb.AddEdge(off+u, off+v, w); return true })
	return nb.Build()
}

func TestPartitionDisconnectedEqualComponents(t *testing.T) {
	// Two equal meshes: the ideal bisection separates them with cut 0.
	m := gen.Mesh(40, 1)
	g := union(m, gen.Mesh(40, 2))
	rng := rand.New(rand.NewSource(3))
	p, err := Partition(g, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutSize(g); cut != 0 {
		t.Errorf("bisection of two equal components cut %v edges, want 0", cut)
	}
	sizes := p.PartSizes()
	if sizes[0] != 40 || sizes[1] != 40 {
		t.Errorf("sizes %v", sizes)
	}
}

func TestPartitionDisconnectedGiantPlusIslands(t *testing.T) {
	// One giant mesh plus several tiny components: the giant must be split
	// spectrally and the small components packed to restore balance.
	giant := gen.Mesh(60, 4)
	b := graph.NewBuilder(66)
	for v := 0; v < 60; v++ {
		b.SetCoord(v, giant.Coord(v))
	}
	giant.Edges(func(u, v int, w float64) bool { b.AddEdge(u, v, w); return true })
	// Add 3 isolated edges (6 nodes in 3 components).
	for u := 60; u < 66; u += 2 {
		b.AddEdge(u, u+1, 1)
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(5))
	p, err := Partition(g, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.PartSizes()
	diff := sizes[0] - sizes[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Errorf("lopsided split of giant+islands: %v", sizes)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDisconnectedFourParts(t *testing.T) {
	// Disconnected graphs can also arise mid-recursion; a 4-way split of a
	// 3-component graph exercises bisectAny at inner levels.
	g := union(union(gen.Mesh(30, 6), gen.Mesh(30, 7)), gen.Mesh(30, 8))
	rng := rand.New(rand.NewSource(9))
	p, err := Partition(g, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.PartSizes()
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 6 {
		t.Errorf("4-way split of 3 components too unbalanced: %v", sizes)
	}
}

func TestBisectSingleNode(t *testing.T) {
	b := graph.NewBuilder(1)
	side, err := Bisect(b.Build(), rand.New(rand.NewSource(1)), 0)
	if err != nil || len(side) != 1 || side[0] != 0 {
		t.Errorf("single-node bisect: %v %v", side, err)
	}
}
