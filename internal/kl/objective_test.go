package kl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// objectiveTestGraphs is the graph zoo the objective equivalence tests run
// over: a unit-weight mesh, a weighted random graph, and a Contract-ed mesh
// with the node/edge-weight structure of coarse multilevel levels.
func objectiveTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"mesh":       gen.Mesh(300, 51),
		"weighted":   weightedRandomGraph(250, 52),
		"contracted": contractedMesh(500, 53),
	}
}

// The comm-volume counters' O(deg) delta must agree with a brute-force rescan
// of the whole partition, over many random states and moves, with moves
// periodically applied through the cached state so later trials exercise
// updated counters.
func TestCommVolDeltaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, g := range objectiveTestGraphs() {
		n := g.NumNodes()
		for _, parts := range []int{2, 5} {
			p := partition.RandomBalanced(n, parts, rng)
			ev := partition.NewEval(g, p)
			ev.EnableCommVol(g, p)
			for trial := 0; trial < 400; trial++ {
				v := rng.Intn(n)
				to := rng.Intn(parts)
				from := int(p.Assign[v])
				if to == from {
					continue
				}
				before := p.CommVolume(g)
				p.Assign[v] = uint16(to)
				after := p.CommVolume(g)
				p.Assign[v] = uint16(from)
				want := after - before
				if got := ev.CommVolDelta(g, p, v, to); got != want {
					t.Fatalf("%s parts=%d trial %d: CommVolDelta(%d->%d) = %v, rescan = %v",
						name, parts, trial, v, to, got, want)
				}
				if trial%3 == 0 {
					ev.Move(g, p, v, to)
				}
			}
			// Cached totals must equal recomputed state at the end.
			if got, want := ev.CommVol(), p.CommVolume(g); got != want {
				t.Fatalf("%s parts=%d: cached CommVol = %v, recomputed %v", name, parts, got, want)
			}
			vols := p.PartVols(g)
			for q := range vols {
				if ev.Vols[q] != vols[q] {
					t.Fatalf("%s parts=%d: cached Vols[%d] = %v, recomputed %v",
						name, parts, q, ev.Vols[q], vols[q])
				}
			}
		}
	}
}

// The climber's incremental fitness delta must match a full re-evaluation for
// every objective — including comm volume, whose delta comes from the tracked
// counters rather than an adjacency rescan.
func TestMoveDeltaMatchesFullEvaluationAllObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for name, g := range objectiveTestGraphs() {
		n := g.NumNodes()
		for _, o := range partition.Objectives() {
			p := partition.RandomBalanced(n, 4, rng)
			c := newClimber(g, p, o)
			if o == partition.CommVolume {
				c.ev.EnableCommVol(g, p)
			}
			for trial := 0; trial < 200; trial++ {
				v := rng.Intn(n)
				to := rng.Intn(4)
				if to == int(p.Assign[v]) {
					continue
				}
				from := p.Assign[v]
				before := p.Fitness(g, o)
				p.Assign[v] = uint16(to)
				after := p.Fitness(g, o)
				p.Assign[v] = from
				want := after - before
				if got := c.moveDelta(v, to); math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s %v trial %d: delta = %v, full eval = %v", name, o, trial, got, want)
				}
				if trial%4 == 0 {
					c.ev.Move(g, p, v, to)
				}
			}
		}
	}
}

// The Workers contract extends to every objective: the colored climb and the
// full Refine chain under maxcut and commvol are pure functions of their
// inputs — identical partition and identical Eval state at every width.
func TestColoredRefinersWidthBitIdenticalObjectives(t *testing.T) {
	for name, g := range objectiveTestGraphs() {
		for _, o := range []partition.Objective{partition.WorstCut, partition.CommVolume} {
			label := name + "/" + o.FlagName()
			start := partition.RandomBalanced(g.NumNodes(), 4, rand.New(rand.NewSource(81)))
			requireWidthBitIdentical(t, label+"/climb", g, start, o, climb)
			requireWidthBitIdentical(t, label+"/refine", g, start, o, Refine)
		}
	}
}

// The colored climb is monotone and converges for the comm-volume objective,
// and at convergence the serial climber agrees no improving move remains —
// the same contract the cut objectives already pin.
func TestColoredClimbCommVolMonotoneAndConverges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.Mesh(240+40*int(seed), seed)
		rng := rand.New(rand.NewSource(seed * 9))
		p := partition.RandomBalanced(g.NumNodes(), 4, rng)
		prev := p.Fitness(g, partition.CommVolume)
		ev := partition.NewEvalBoundary(g, p)
		for pass := 0; pass < 50; pass++ {
			moved := Climb(g, p, ev, Config{Objective: partition.CommVolume, MaxPasses: 1, Workers: 4})
			fit := p.Fitness(g, partition.CommVolume)
			if fit < prev-1e-9 {
				t.Fatalf("seed %d: pass %d worsened fitness %v -> %v", seed, pass, prev, fit)
			}
			prev = fit
			if moved == 0 {
				break
			}
		}
		if m := HillClimbEval(g, p, partition.CommVolume, 1, nil); m != 0 {
			t.Errorf("seed %d: serial climb found %d moves after colored convergence", seed, m)
		}
	}
}
