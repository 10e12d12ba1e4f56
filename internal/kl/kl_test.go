package kl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestHillClimbNeverWorsensFitness(t *testing.T) {
	g := gen.PaperGraph(98)
	rng := rand.New(rand.NewSource(1))
	for _, o := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		p := partition.RandomBalanced(g.NumNodes(), 4, rng)
		before := p.Fitness(g, o)
		HillClimbEval(g, p, o, 0, nil)
		after := p.Fitness(g, o)
		if after < before {
			t.Errorf("%v: fitness worsened %v -> %v", o, before, after)
		}
	}
}

func TestHillClimbReachesLocalOptimum(t *testing.T) {
	g := gen.Mesh(60, 2)
	rng := rand.New(rand.NewSource(3))
	p := partition.RandomBalanced(60, 2, rng)
	HillClimbEval(g, p, partition.TotalCut, 0, nil)
	// At a local optimum no single move improves: one more pass moves nothing.
	if moves := HillClimbEval(g, p, partition.TotalCut, 1, nil); moves != 0 {
		t.Errorf("second HillClimb made %d moves", moves)
	}
}

func TestHillClimbImprovesRandomPartition(t *testing.T) {
	g := gen.PaperGraph(167)
	rng := rand.New(rand.NewSource(5))
	p := partition.RandomBalanced(g.NumNodes(), 8, rng)
	before := p.CutSize(g)
	HillClimbEval(g, p, partition.TotalCut, 0, nil)
	after := p.CutSize(g)
	if after >= before {
		t.Errorf("hill climbing did not reduce cut: %v -> %v", before, after)
	}
}

func TestHillClimbMaxPasses(t *testing.T) {
	g := gen.Mesh(80, 7)
	rng := rand.New(rand.NewSource(9))
	p := partition.RandomBalanced(80, 4, rng)
	q := p.Clone()
	m1 := HillClimbEval(g, p, partition.TotalCut, 1, nil)
	mAll := HillClimbEval(g, q, partition.TotalCut, 0, nil)
	if m1 > mAll {
		t.Errorf("1 pass made %d moves, unlimited made %d", m1, mAll)
	}
}

func TestRefineRestoresBalance(t *testing.T) {
	g := gen.PaperGraph(139)
	rng := rand.New(rand.NewSource(13))
	// Deliberately unbalanced start: first 100 nodes in part 0.
	p := partition.New(g.NumNodes(), 4)
	for v := 0; v < g.NumNodes(); v++ {
		if v >= 100 {
			p.Assign[v] = uint16(1 + v%3)
		}
	}
	_ = rng
	Refine(g, p, nil, Config{})
	sizes := p.PartSizes()
	ideal := float64(g.NumNodes()) / 4
	for q, s := range sizes {
		if float64(s) > ideal+2 {
			t.Errorf("part %d still overweight: %d (ideal %.1f, sizes %v)", q, s, ideal, sizes)
		}
	}
}

// Property: HillClimbEval is monotone in fitness for arbitrary meshes, parts,
// objectives, and starting partitions.
func TestQuickHillClimbMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(60)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(6)
		o := []partition.Objective{partition.TotalCut, partition.WorstCut}[rng.Intn(2)]
		p := partition.Random(n, parts, rng)
		before := p.Fitness(g, o)
		HillClimbEval(g, p, o, 3, nil)
		return p.Fitness(g, o) >= before && p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

// The serial climb gathers each boundary node's adjacency once and folds
// every candidate's gain from the gathered weights. On integer weights that
// must reproduce, bit for bit, the climb that rescans the adjacency for each
// candidate (refClimb): the same partition, move count and Eval state, at
// part counts whose ideal weight W/k is and is not representable, under
// every objective, from tracked and untracked Evals, for one pass and to
// convergence.
func TestHillClimbMatchesPerCandidateScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := hubGraph(150+100*int(seed), int(seed), seed)
		for _, k := range []int{2, 3, 5, 8, 16} {
			start := partition.RandomBalanced(g.NumNodes(), k, rand.New(rand.NewSource(seed*100+int64(k))))
			for _, o := range partition.Objectives() {
				for _, tracked := range []bool{false, true} {
					for _, maxPasses := range []int{1, 0} {
						label := fmt.Sprintf("seed %d k=%d %s tracked=%v maxPasses=%d", seed, k, o.FlagName(), tracked, maxPasses)
						newEval := func(p *partition.Partition) *partition.Eval {
							if tracked {
								return partition.Tracked(g, p, nil, o, 1)
							}
							return partition.NewEval(g, p)
						}
						refP := start.Clone()
						refEv := newEval(refP)
						refMoves := refClimb(g, refP, o, maxPasses, refEv)
						p := start.Clone()
						ev := newEval(p)
						moves := HillClimbEval(g, p, o, maxPasses, ev)
						if moves != refMoves {
							t.Fatalf("%s: %d moves, reference %d", label, moves, refMoves)
						}
						requireSameEval(t, label, g, refP, p, refEv, ev)
					}
				}
			}
		}
	}
}

// refClimb is the reference climb: HillClimbEval's passes, visit order and
// tie rules, with each candidate part, in first-seen neighbor order, scored
// by partition.Eval.MoveGain's own scan of v's adjacency.
func refClimb(g *graph.Graph, p *partition.Partition, o partition.Objective, maxPasses int, ev *partition.Eval) int {
	if o == partition.CommVolume {
		ev = partition.Tracked(g, p, ev, o, 1)
	}
	moves := 0
	for pass := 0; maxPasses <= 0 || pass < maxPasses; pass++ {
		var boundary []int
		if ev.TracksBoundary() {
			boundary = ev.AppendBoundary(nil)
		} else {
			boundary = p.BoundaryNodes(g)
		}
		improved := false
		for _, v := range boundary {
			from := int(p.Assign[v])
			var tried []int
			bestTo := -1
			var bestFit float64
			for _, u := range g.Neighbors(v) {
				to := int(p.Assign[u])
				if to == from || slices.Contains(tried, to) {
					continue
				}
				tried = append(tried, to)
				fit := ev.MoveGain(g, p, o, v, to)
				if fit > 1e-12 && (bestTo < 0 || fit > bestFit) {
					bestTo, bestFit = to, fit
				}
			}
			if bestTo >= 0 {
				ev.Move(g, p, v, bestTo)
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return moves
}

// requireSameEval checks that p and ev equal the reference pair bit for
// bit: every assignment, every part's weight and cut, and the trackers the
// reference keeps.
func requireSameEval(t *testing.T, label string, g *graph.Graph, refP, p *partition.Partition, refEv, ev *partition.Eval) {
	t.Helper()
	if refEv.TracksBoundary() != ev.TracksBoundary() || refEv.TracksCommVol() != ev.TracksCommVol() {
		t.Fatalf("%s: trackers differ from the reference's", label)
	}
	if refEv.TracksBoundary() {
		requireSameResult(t, label, g, refP, p, refEv, ev)
	} else {
		for v := range refP.Assign {
			if refP.Assign[v] != p.Assign[v] {
				t.Fatalf("%s: node %d in part %d, reference %d", label, v, p.Assign[v], refP.Assign[v])
			}
		}
		for q := range refEv.Weights {
			if refEv.Weights[q] != ev.Weights[q] || refEv.Cuts[q] != ev.Cuts[q] {
				t.Fatalf("%s: part %d aggregates (%v,%v) != reference (%v,%v)",
					label, q, ev.Weights[q], ev.Cuts[q], refEv.Weights[q], refEv.Cuts[q])
			}
		}
	}
	if refEv.TracksCommVol() && !slices.Equal(refEv.Vols, ev.Vols) {
		t.Fatalf("%s: volumes %v != reference %v", label, ev.Vols, refEv.Vols)
	}
}

// hubGraph is a random graph with integer node weights 1..9 and edge weights
// 1..5: a spanning tree, n random extra edges, and `hubs` hubs each adjacent
// to about a third of the nodes.
func hubGraph(n, hubs int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(9)))
	}
	last := map[[2]int]float64{} // a pair drawn twice keeps its last weight
	edge := func(u, v int) {
		if u != v {
			last[[2]int{min(u, v), max(u, v)}] = float64(1 + rng.Intn(5))
		}
	}
	for v := 1; v < n; v++ {
		edge(v, rng.Intn(v))
	}
	for i := 0; i < n; i++ {
		edge(rng.Intn(n), rng.Intn(n))
	}
	for h := 0; h < hubs; h++ {
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				edge(hub, v)
			}
		}
	}
	for e, w := range last { // the built graph does not depend on edge order
		b.AddEdge(e[0], e[1], w)
	}
	return b.Build()
}
