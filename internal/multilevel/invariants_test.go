package multilevel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
)

// checkHierarchyInvariants builds a full hierarchy over g and verifies, at
// every level, the two conservation laws multilevel correctness rests on:
//
//  1. total vertex weight is preserved by coarsening, and
//  2. for any coarse partition, the cut (and the per-part weight/cut
//     aggregates partition.Eval caches) of its projection onto the finer
//     graph is identical — which is exactly why the uncoarsening phase may
//     carry one Eval down the whole hierarchy without rescanning.
func checkHierarchyInvariants(t *testing.T, g *graph.Graph, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	levels, coarsest := BuildHierarchy(g, 24, 30, rng, 1)
	if len(levels) == 0 {
		t.Fatalf("no coarsening happened on a %d-node graph", g.NumNodes())
	}
	if levels[0].Graph != g {
		t.Fatal("levels[0] is not the input graph")
	}
	next := coarsest
	for i := len(levels) - 1; i >= 0; i-- {
		fine, coarse := levels[i].Graph, next
		if err := coarse.Validate(); err != nil {
			t.Fatalf("level %d coarse graph invalid: %v", i, err)
		}
		if math.Abs(coarse.TotalNodeWeight()-fine.TotalNodeWeight()) > 1e-9 {
			t.Fatalf("level %d: total vertex weight %v -> %v",
				i, fine.TotalNodeWeight(), coarse.TotalNodeWeight())
		}
		// Random coarse partition, projected to the fine level.
		cp := partition.RandomBalanced(coarse.NumNodes(), 4, rng)
		fp := partition.New(fine.NumNodes(), 4)
		for v := range fp.Assign {
			fp.Assign[v] = cp.Assign[levels[i].CoarseOf[v]]
		}
		if c, f := cp.CutSize(coarse), fp.CutSize(fine); math.Abs(c-f) > 1e-9 {
			t.Fatalf("level %d: cut weight not preserved across projection: coarse %v fine %v", i, c, f)
		}
		cEv, fEv := partition.NewEval(coarse, cp), partition.NewEval(fine, fp)
		for q := 0; q < 4; q++ {
			if math.Abs(cEv.Weights[q]-fEv.Weights[q]) > 1e-9 {
				t.Fatalf("level %d part %d: weight aggregate %v != %v", i, q, cEv.Weights[q], fEv.Weights[q])
			}
			if math.Abs(cEv.Cuts[q]-fEv.Cuts[q]) > 1e-9 {
				t.Fatalf("level %d part %d: cut aggregate %v != %v", i, q, cEv.Cuts[q], fEv.Cuts[q])
			}
		}
		next = fine
	}
}

func TestHierarchyInvariantsRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.Mesh(100+50*int(seed), seed)
		checkHierarchyInvariants(t, g, seed*13)
	}
}

func TestHierarchyInvariantsWeightedGraph(t *testing.T) {
	// Integer node and edge weights, so aggregation is exercised beyond the
	// unit-weight case.
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(300)
	for v := 0; v < 300; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(7)))
	}
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < 300; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, float64(1+rng.Intn(9)))
	}
	for i := 0; i < 500; i++ {
		u, v := rng.Intn(300), rng.Intn(300)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
			b.AddEdge(u, v, float64(1+rng.Intn(9)))
		}
	}
	checkHierarchyInvariants(t, b.Build(), 6)
}

func TestHierarchyInvariantsMETISGraph(t *testing.T) {
	// Round-trip a weighted mesh through the METIS format, then check the
	// same invariants on the parsed graph: coarsening must not depend on any
	// in-memory state the interchange format drops.
	src := gen.Mesh(250, 17)
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, src); err != nil {
		t.Fatal(err)
	}
	g, err := gio.ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != src.NumNodes() || g.NumEdges() != src.NumEdges() {
		t.Fatalf("METIS round trip changed shape: %d/%d nodes, %d/%d edges",
			src.NumNodes(), g.NumNodes(), src.NumEdges(), g.NumEdges())
	}
	checkHierarchyInvariants(t, g, 18)
}

// rawProjection is the V-cycle with no refinement: the hierarchy and coarse
// solve Partition builds for (parts, seed) under rsbInner, projected straight
// back up to g.
func rawProjection(t *testing.T, g *graph.Graph, parts int, seed int64) *partition.Partition {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	levels, coarsest := BuildHierarchy(g, 64, maxLevels, rng, 1)
	p, err := rsbInner(coarsest, parts, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(levels) - 1; i >= 0; i-- {
		fine := partition.New(levels[i].Graph.NumNodes(), parts)
		for v := range fine.Assign {
			fine.Assign[v] = p.Assign[levels[i].CoarseOf[v]]
		}
		p = fine
	}
	return p
}

func TestPartitionRefinersAgreeOnValidity(t *testing.T) {
	for _, n := range []int{500, 2000} {
		g := gen.Mesh(n, 21)
		raw := rawProjection(t, g, 4, 2)
		for _, ref := range []Refiner{RefineKLFM, RefineFM} {
			p, err := Partition(g, Config{Parts: 4, Seed: 2, Refiner: ref}, rsbInner)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, ref, err)
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("n=%d %v: %v", n, ref, err)
			}
			// Refinement must not hurt: both refiners cut no worse than the
			// raw projection.
			if p.CutSize(g) > raw.CutSize(g) {
				t.Errorf("n=%d %v worsened the cut: %v > %v", n, ref, p.CutSize(g), raw.CutSize(g))
			}
		}
	}
}
