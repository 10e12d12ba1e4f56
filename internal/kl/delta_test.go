package kl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// newClimber returns a climber over p with a freshly built Eval, for probing
// move deltas directly.
func newClimber(g *graph.Graph, p *partition.Partition, o partition.Objective) *climber {
	return &climber{
		g:   g,
		p:   p,
		o:   o,
		ev:  partition.NewEval(g, p),
		avg: g.TotalNodeWeight() / float64(p.Parts),
	}
}

// TestMoveDeltaMatchesFullEvaluation cross-checks the incremental fitness
// delta against a full re-evaluation for both objectives, over many random
// states and moves.
func TestMoveDeltaMatchesFullEvaluation(t *testing.T) {
	g := gen.Mesh(50, 31)
	rng := rand.New(rand.NewSource(7))
	for _, o := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		p := partition.RandomBalanced(50, 4, rng)
		c := newClimber(g, p, o)
		for trial := 0; trial < 300; trial++ {
			v := rng.Intn(50)
			to := rng.Intn(4)
			from := int(p.Assign[v])
			if to == from {
				continue
			}
			before := p.Fitness(g, o)
			p.Assign[v] = uint16(to)
			after := p.Fitness(g, o)
			p.Assign[v] = uint16(from)
			want := after - before
			got := c.moveDelta(v, to)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v trial %d: delta = %v, full eval = %v", o, trial, got, want)
			}
			// Occasionally apply the move through the climber's cached
			// state so later trials exercise updated caches.
			if trial%4 == 0 {
				c.ev.Move(g, p, v, to)
			}
		}
		// Cached state must equal recomputed state at the end.
		fresh := p.PartWeights(g)
		for q := range fresh {
			if math.Abs(fresh[q]-c.ev.Weights[q]) > 1e-9 {
				t.Fatalf("%v: cached weight[%d] = %v, recomputed %v", o, q, c.ev.Weights[q], fresh[q])
			}
		}
		cuts := p.PartCuts(g)
		for q := range cuts {
			if math.Abs(cuts[q]-c.ev.Cuts[q]) > 1e-9 {
				t.Fatalf("cached cut[%d] = %v, recomputed %v", q, c.ev.Cuts[q], cuts[q])
			}
		}
	}
}

// Property: after HillClimbEval converges, no single boundary move improves
// fitness (verified by full evaluation, independent of the incremental
// machinery).
func TestQuickHillClimbTrueLocalOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(40)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(4)
		o := []partition.Objective{partition.TotalCut, partition.WorstCut}[rng.Intn(2)]
		p := partition.RandomBalanced(n, parts, rng)
		HillClimbEval(g, p, o, 0, nil)
		base := p.Fitness(g, o)
		for v := 0; v < n; v++ {
			from := p.Assign[v]
			for q := 0; q < parts; q++ {
				if q == int(from) {
					continue
				}
				// Only neighbor parts are candidate moves in HillClimbEval.
				isNbr := false
				for _, u := range g.Neighbors(v) {
					if int(p.Assign[u]) == q {
						isNbr = true
						break
					}
				}
				if !isNbr {
					continue
				}
				p.Assign[v] = uint16(q)
				f2 := p.Fitness(g, o)
				p.Assign[v] = from
				if f2 > base+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
