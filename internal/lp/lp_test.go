package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func testGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.RandomGeometric(rng, n, math.Sqrt(2.56/float64(n)))
}

func refined(g *graph.Graph, cfg Config, seed int64) (*partition.Partition, *partition.Eval, int) {
	p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(seed)))
	ev := partition.NewEvalBoundary(g, p)
	moves := Refine(g, p, ev, cfg)
	return p, ev, moves
}

func TestRefineReducesCutWithinCap(t *testing.T) {
	g := testGraph(4000, 1)
	p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(2)))
	ev := partition.NewEvalBoundary(g, p)
	before := ev.TotalCutWeight()
	moves := Refine(g, p, ev, Config{Workers: 1})
	if moves == 0 {
		t.Fatal("no moves on a random partition of a geometric graph")
	}
	if after := ev.TotalCutWeight(); after >= before {
		t.Fatalf("cut did not drop: %v -> %v", before, after)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("invalid partition after refinement: %v", err)
	}
	// RandomBalanced starts every part within the cap, and LP never pushes
	// a part over it, so the cap must hold on exit.
	maxLoad := g.TotalNodeWeight() / float64(p.Parts) * 1.02
	for q, w := range ev.Weights {
		if w > maxLoad+1e-9 {
			t.Fatalf("part %d weight %v exceeds cap %v", q, w, maxLoad)
		}
	}
}

func TestRefineWorkersBitIdentical(t *testing.T) {
	// The worker count is a pure speed knob: every width must produce the
	// identical move sequence and final assignment.
	g := testGraph(3000, 3)
	ref, _, refMoves := refined(g, Config{Workers: 1}, 4)
	for _, workers := range []int{2, 4, 8} {
		p, _, moves := refined(g, Config{Workers: workers}, 4)
		if moves != refMoves {
			t.Fatalf("workers=%d made %d moves, workers=1 made %d", workers, moves, refMoves)
		}
		for v := range p.Assign {
			if p.Assign[v] != ref.Assign[v] {
				t.Fatalf("workers=%d: node %d in part %d, workers=1 put it in %d", workers, v, p.Assign[v], ref.Assign[v])
			}
		}
	}
}

func TestScratchReuseBitIdentical(t *testing.T) {
	// A scratch recycled across refinements — of different graphs, in both
	// growing and shrinking order — must change nothing vs fresh state.
	var s Scratch
	for trial, n := range []int{2500, 800, 4000} {
		g := testGraph(n, int64(10+trial))
		ref, _, refMoves := refined(g, Config{Workers: 2}, int64(20+trial))
		p, _, moves := refined(g, Config{Workers: 2, Scratch: &s}, int64(20+trial))
		if moves != refMoves {
			t.Fatalf("n=%d: scratch run made %d moves, fresh made %d", n, moves, refMoves)
		}
		for v := range p.Assign {
			if p.Assign[v] != ref.Assign[v] {
				t.Fatalf("n=%d: node %d differs with reused scratch", n, v)
			}
		}
	}
}
