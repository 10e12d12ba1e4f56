package kl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// rgg is a random geometric graph of average degree about 8 (2.56π), the
// shape label propagation refines at the million-node tier.
func rgg(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.RandomGeometric(rng, n, math.Sqrt(2.56/float64(n)))
}

func propagated(g *graph.Graph, parts int, seed int64, cfg Config) (*partition.Partition, *partition.Eval, int) {
	p := partition.RandomBalanced(g.NumNodes(), parts, rand.New(rand.NewSource(seed)))
	ev := partition.Tracked(g, p, nil, partition.TotalCut, 1)
	moves := Propagate(g, p, ev, cfg)
	return p, ev, moves
}

func TestPropagateReducesCutWithinCap(t *testing.T) {
	g := rgg(4000, 1)
	p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(2)))
	ev := partition.Tracked(g, p, nil, partition.TotalCut, 1)
	before := ev.TotalCutWeight()
	if Propagate(g, p, ev, Config{Workers: 1}) == 0 {
		t.Fatal("no moves on a random partition of a geometric graph")
	}
	if after := ev.TotalCutWeight(); after >= before {
		t.Fatalf("cut did not drop: %v -> %v", before, after)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("invalid partition after refinement: %v", err)
	}
	// RandomBalanced starts every part within the cap, and Propagate never
	// pushes a part over it, so the cap must hold on exit.
	maxLoad := g.TotalNodeWeight() / float64(p.Parts) * 1.02
	for q, w := range ev.Weights {
		if w > maxLoad+1e-9 {
			t.Fatalf("part %d weight %v exceeds cap %v", q, w, maxLoad)
		}
	}
}

// The worker count is a pure speed knob: every width must produce the
// identical move count, partition, and Eval state.
func TestPropagateWorkersBitIdentical(t *testing.T) {
	g := rgg(3000, 3)
	refP, refEv, refMoves := propagated(g, 8, 4, Config{Workers: 1})
	for _, w := range []int{2, 4, 8} {
		p, ev, moves := propagated(g, 8, 4, Config{Workers: w})
		if moves != refMoves {
			t.Fatalf("workers=%d made %d moves, workers=1 made %d", w, moves, refMoves)
		}
		requireSameResult(t, "propagate", g, refP, p, refEv, ev)
	}
}

// A sweeper recycled through the pool carries buffers, coloring state, and
// dedup stamps from earlier sweeps. Recycled across Climb and Propagate
// calls on graphs that grow and shrink, with part and worker counts that do
// too, it must give exactly what a fresh sweeper gives.
func TestSweepReuseBitIdentical(t *testing.T) {
	rules := map[string]func(*sweeper, *graph.Graph, *partition.Partition, *partition.Eval, Config) int{
		"climb":     (*sweeper).climb,
		"propagate": (*sweeper).propagate,
	}
	var reused sweeper
	for trial, tc := range []struct{ n, parts, workers int }{
		{2500, 8, 2}, {800, 2, 4}, {4000, 13, 2}, {1200, 5, 1},
	} {
		g := rgg(tc.n, int64(10+trial))
		start := partition.RandomBalanced(g.NumNodes(), tc.parts, rand.New(rand.NewSource(int64(20+trial))))
		for _, name := range []string{"climb", "propagate"} {
			cfg := Config{Workers: tc.workers}
			refP := start.Clone()
			refEv := partition.Tracked(g, refP, nil, partition.TotalCut, 1)
			refMoves := rules[name](new(sweeper), g, refP, refEv, cfg)
			p := start.Clone()
			ev := partition.Tracked(g, p, nil, partition.TotalCut, 1)
			moves := rules[name](&reused, g, p, ev, cfg)
			if moves != refMoves {
				t.Fatalf("n=%d %s: reused sweeper made %d moves, fresh made %d", tc.n, name, moves, refMoves)
			}
			requireSameResult(t, name, g, refP, p, refEv, ev)
		}
	}
}

// Stop is polled before each pass: a Stop that turns true after its first
// call lets exactly one pass run, and the early return is a consistent
// state — p valid and ev equal to a from-scratch build.
func TestPropagateStopAfterOnePass(t *testing.T) {
	g := rgg(3000, 5)
	calls := 0
	stop := func() bool {
		calls++
		return calls > 1
	}
	p, ev, moves := propagated(g, 8, 6, Config{Workers: 2, Stop: stop})
	onceP, onceEv, onceMoves := propagated(g, 8, 6, Config{Workers: 2, MaxPasses: 1})
	if moves != onceMoves {
		t.Fatalf("stopped run made %d moves, a one-pass run %d", moves, onceMoves)
	}
	requireSameResult(t, "stopped vs one pass", g, onceP, p, onceEv, ev)
	if _, _, all := propagated(g, 8, 6, Config{Workers: 2}); all <= moves {
		t.Fatalf("an unstopped run made %d moves, no more than one pass's %d: Stop was not exercised", all, moves)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "stopped vs rebuilt Eval", g, p, p, partition.Tracked(g, p, nil, partition.TotalCut, 1), ev)
}
