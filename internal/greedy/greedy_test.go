package greedy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestRegionGrowBalanced(t *testing.T) {
	g := gen.PaperGraph(167)
	for _, parts := range []int{2, 3, 4, 8} {
		p, err := RegionGrow(g, parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatal(err)
		}
		if !p.Balanced() {
			t.Errorf("parts=%d sizes %v", parts, p.PartSizes())
		}
	}
}

func TestRegionGrowBeatsScattered(t *testing.T) {
	g := gen.PaperGraph(144)
	rg, err := RegionGrow(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Scattered(g.NumNodes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rg.CutSize(g) >= sc.CutSize(g) {
		t.Errorf("region growing cut %v not better than scattered %v",
			rg.CutSize(g), sc.CutSize(g))
	}
}

func TestRegionGrowContiguousOnPath(t *testing.T) {
	// On a path the greedy regions must be contiguous intervals: cut = parts-1.
	b := graph.NewBuilder(20)
	for i := 0; i+1 < 20; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	p, err := RegionGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutSize(g); cut != 3 {
		t.Errorf("path region-grow cut = %v, want 3", cut)
	}
}

func TestRegionGrowDisconnected(t *testing.T) {
	// Two components; quota forces a region to span both.
	b := graph.NewBuilder(10)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1, 1)
		b.AddEdge(5+i, 6+i, 1)
	}
	g := b.Build()
	p, err := RegionGrow(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Balanced() {
		t.Errorf("sizes %v", p.PartSizes())
	}
}

func TestScattered(t *testing.T) {
	p, err := Scattered(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Balanced() {
		t.Errorf("sizes %v", p.PartSizes())
	}
	if p.Assign[0] != 0 || p.Assign[1] != 1 || p.Assign[2] != 2 || p.Assign[3] != 0 {
		t.Errorf("not round-robin: %v", p.Assign)
	}
	if _, err := Scattered(5, 0); err == nil {
		t.Error("0 parts accepted")
	}
}

func TestStripIndex(t *testing.T) {
	g := gen.Grid(8, 8)
	p, err := StripIndex(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Balanced() {
		t.Errorf("sizes %v", p.PartSizes())
	}
	// 4 vertical strips of an 8x8 grid cut 3*8 = 24 edges.
	if cut := p.CutSize(g); cut != 24 {
		t.Errorf("strip cut = %v, want 24", cut)
	}
	// Requires coords.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	if _, err := StripIndex(b.Build(), 2); err == nil {
		t.Error("coordinate-free graph accepted")
	}
}

func TestErrors(t *testing.T) {
	g := gen.Mesh(20, 1)
	if _, err := RegionGrow(g, 0); err == nil {
		t.Error("RegionGrow 0 parts accepted")
	}
	if _, err := StripIndex(g, -1); err == nil {
		t.Error("StripIndex -1 parts accepted")
	}
	// Empty graph.
	empty := graph.NewBuilder(0).Build()
	if p, err := RegionGrow(empty, 2); err != nil || len(p.Assign) != 0 {
		t.Error("empty graph mishandled")
	}
}

func TestRegionGrowAsGASeed(t *testing.T) {
	// Region growing should produce a competitive seed: its cut must be
	// within 3x of RSB-quality on a mesh (loose, but catches regressions
	// to scattered-like behavior).
	g := gen.PaperGraph(98)
	p, err := RegionGrow(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rnd := partition.RandomBalanced(g.NumNodes(), 4, rand.New(rand.NewSource(1)))
	if p.CutSize(g) >= rnd.CutSize(g)/2 {
		t.Errorf("region grow cut %v vs random %v — too weak", p.CutSize(g), rnd.CutSize(g))
	}
}

// Property: all three heuristics always produce valid, balanced partitions.
func TestQuickAllBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(80)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(7)
		rg, err1 := RegionGrow(g, parts)
		sc, err2 := Scattered(n, parts)
		st, err3 := StripIndex(g, parts)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return rg.Balanced() && sc.Balanced() && st.Balanced() &&
			rg.Validate(g) == nil && sc.Validate(g) == nil && st.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}
