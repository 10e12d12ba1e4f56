package rcb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestRCBOnGridIsOptimalStrips(t *testing.T) {
	// 8x8 grid into 2 parts: median x-split cuts exactly 8 edges.
	g := gen.Grid(8, 8)
	p, err := Partition(g, 2, Coordinate)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutSize(g); cut != 8 {
		t.Errorf("RCB grid cut = %v, want 8", cut)
	}
	if !p.Balanced() {
		t.Errorf("sizes %v", p.PartSizes())
	}
}

func TestRGBOnPathIsOptimal(t *testing.T) {
	b := graph.NewBuilder(16)
	for i := 0; i+1 < 16; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	p, err := Partition(g, 4, GraphBFS)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutSize(g); cut != 3 {
		t.Errorf("RGB path cut = %v, want 3", cut)
	}
	if !p.Balanced() {
		t.Errorf("sizes %v", p.PartSizes())
	}
}

func TestPartitionErrors(t *testing.T) {
	g := gen.Mesh(20, 1)
	if _, err := Partition(g, 3, Coordinate); err == nil {
		t.Error("non-power-of-two accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	if _, err := Partition(b.Build(), 2, Coordinate); err == nil {
		t.Error("coordinate method accepted graph without coords")
	}
	if _, err := Partition(b.Build(), 2, GraphBFS); err != nil {
		t.Errorf("RGB should not need coords: %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if Coordinate.String() == "" || GraphBFS.String() == "" || Method(9).String() == "" {
		t.Error("empty String()")
	}
}

func TestBothMethodsBeatRandomOnMesh(t *testing.T) {
	g := gen.PaperGraph(213)
	rng := rand.New(rand.NewSource(1))
	randCut := partition.RandomBalanced(g.NumNodes(), 8, rng).CutSize(g)
	for _, m := range []Method{Coordinate, GraphBFS} {
		p, err := Partition(g, 8, m)
		if err != nil {
			t.Fatal(err)
		}
		if cut := p.CutSize(g); cut >= randCut {
			t.Errorf("%v cut %v not better than random %v", m, cut, randCut)
		}
	}
}

// Property: both methods always produce balanced, valid partitions.
func TestQuickBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(120)
		g := gen.Mesh(n, seed)
		parts := []int{2, 4, 8}[rng.Intn(3)]
		m := []Method{Coordinate, GraphBFS}[rng.Intn(2)]
		p, err := Partition(g, parts, m)
		if err != nil || p.Validate(g) != nil {
			return false
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
		levels := 0
		for q := parts; q > 1; q /= 2 {
			levels++
		}
		return max-min <= levels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Error(err)
	}
}

// Property: deterministic — same input gives identical partitions.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%50+50)%50
		g := gen.Mesh(n, seed)
		for _, m := range []Method{Coordinate, GraphBFS} {
			a, err1 := Partition(g, 4, m)
			b, err2 := Partition(g, 4, m)
			if err1 != nil || err2 != nil {
				return false
			}
			for v := range a.Assign {
				if a.Assign[v] != b.Assign[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Error(err)
	}
}
