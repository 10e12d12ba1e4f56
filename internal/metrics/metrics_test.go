package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestAnalyzeOnKnownDecomposition(t *testing.T) {
	// 4x4 grid split into two 4x2 halves by column: cut = 4, each part has
	// one neighbor, boundary = 4 nodes of 8 per part.
	g := gen.Grid(4, 4)
	p := partition.New(16, 2)
	for v := 0; v < 16; v++ {
		if v%4 >= 2 {
			p.Assign[v] = 1
		}
	}
	r, err := Analyze(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cut != 4 {
		t.Errorf("Cut = %v, want 4", r.Cut)
	}
	if r.WorstHalo != 4 || r.TotalHalo != 8 {
		t.Errorf("halo = %v/%v, want 4/8", r.WorstHalo, r.TotalHalo)
	}
	if r.LoadRatio != 1 {
		t.Errorf("LoadRatio = %v, want 1", r.LoadRatio)
	}
	if r.MaxNeighbors != 1 {
		t.Errorf("MaxNeighbors = %v, want 1", r.MaxNeighbors)
	}
	for q, sv := range r.SurfaceToVolume {
		if sv != 0.5 {
			t.Errorf("SurfaceToVolume[%d] = %v, want 0.5", q, sv)
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	g := gen.Mesh(10, 1)
	if _, err := Analyze(g, partition.New(5, 2)); err == nil {
		t.Error("mismatched partition accepted")
	}
}

func TestFormatAndCompare(t *testing.T) {
	g := gen.PaperGraph(78)
	rng := rand.New(rand.NewSource(3))
	pa := partition.RandomBalanced(78, 4, rng)
	pb := partition.RandomBalanced(78, 4, rng)
	ra, err := Analyze(g, pa)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Analyze(g, pb)
	if err != nil {
		t.Fatal(err)
	}
	out := ra.Format()
	if !strings.Contains(out, "load-ratio") || !strings.Contains(out, "surf/vol") {
		t.Errorf("Format missing columns:\n%s", out)
	}
	cmp := Compare("A", ra, "B", rb)
	if !strings.Contains(cmp, "cut:") || !strings.Contains(cmp, "load-ratio:") {
		t.Errorf("Compare output malformed: %s", cmp)
	}
	// Self-comparison is all ties.
	self := Compare("A", ra, "B", ra)
	if strings.Count(self, "tie") != 3 {
		t.Errorf("self comparison not all ties: %s", self)
	}
}

func TestWeightedLoads(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetNodeWeight(0, 4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	p := partition.New(3, 2)
	p.Assign[0] = 1 // part 1 holds the weight-4 node; part 0 holds 2 units
	r, err := Analyze(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeLoad[1] != 4 || r.ComputeLoad[0] != 2 {
		t.Errorf("loads = %v", r.ComputeLoad)
	}
	want := 4 / ((4.0 + 2.0) / 2)
	if math.Abs(r.LoadRatio-want) > 1e-12 {
		t.Errorf("LoadRatio = %v, want %v", r.LoadRatio, want)
	}
}

// Property: TotalHalo == 2*Cut; Neighbors[q] < parts; LoadRatio >= 1.
func TestQuickReportInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(6)
		p := partition.Random(n, parts, rng)
		r, err := Analyze(g, p)
		if err != nil {
			return false
		}
		if math.Abs(r.TotalHalo-2*r.Cut) > 1e-9 {
			return false
		}
		if r.LoadRatio < 1-1e-12 {
			return false
		}
		for _, nb := range r.Neighbors {
			if nb >= parts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}
