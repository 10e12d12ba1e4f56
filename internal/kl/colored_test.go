package kl

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

var widths = []int{1, 2, 4, 8, 0}

// weightedRandomGraph builds a connected random graph with integer node and
// edge weights, the shape coarse multilevel levels have.
func weightedRandomGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(6)))
	}
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, float64(1+rng.Intn(5)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
			b.AddEdge(u, v, float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// contractedMesh coarsens a mesh by one level of random matching via
// graph.Contract, giving the node/edge-weight structure multilevel levels
// carry without importing the multilevel package (which imports kl).
func contractedMesh(n int, seed int64) *graph.Graph {
	g := gen.Mesh(n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range rng.Perm(n) {
		if match[v] != -1 {
			continue
		}
		match[v] = v
		for _, u := range g.Neighbors(v) {
			if match[u] == -1 {
				match[v], match[u] = int(u), v
				break
			}
		}
	}
	coarseOf := make([]int, n)
	next := 0
	for v := 0; v < n; v++ {
		if match[v] >= v {
			coarseOf[v] = next
			if match[v] != v {
				coarseOf[match[v]] = next
			}
			next++
		}
	}
	return graph.Contract(g, coarseOf, next, 1)
}

func requireSameResult(t *testing.T, label string, g *graph.Graph, refP, p *partition.Partition, refEv, ev *partition.Eval) {
	t.Helper()
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
	rb, b := refEv.AppendBoundary(nil), ev.AppendBoundary(nil)
	if len(rb) != len(b) {
		t.Fatalf("%s: boundary size %d != %d", label, len(b), len(rb))
	}
	for i := range rb {
		if rb[i] != b[i] {
			t.Fatalf("%s: boundary[%d] = %d != %d", label, i, b[i], rb[i])
		}
	}
}

type refiner func(*graph.Graph, *partition.Partition, *partition.Eval, Config)

func climb(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) {
	Climb(g, p, ev, cfg)
}

// requireWidthBitIdentical checks that r, run under objective o from start,
// is a pure function of its inputs: every worker width yields the identical
// partition AND identical Eval state (weights, cuts, boundary, and under
// commvol a tracked volume that lands exactly on a rescan).
func requireWidthBitIdentical(t *testing.T, label string, g *graph.Graph, start *partition.Partition, o partition.Objective, r refiner) {
	t.Helper()
	refP := start.Clone()
	refEv := partition.Tracked(g, refP, nil, partition.TotalCut, 1)
	r(g, refP, refEv, Config{Objective: o, Workers: 1})
	for _, w := range widths[1:] {
		p := start.Clone()
		ev := partition.Tracked(g, p, nil, partition.TotalCut, w)
		r(g, p, ev, Config{Objective: o, Workers: w})
		requireSameResult(t, label, g, refP, p, refEv, ev)
		if o == partition.CommVolume {
			if got, want := ev.CommVol(), p.CommVolume(g); got != want {
				t.Fatalf("%s: width %d tracked CommVol %v, rescan %v", label, w, got, want)
			}
		}
	}
}

// The Workers contract: the colored climb and the full Refine chain are pure
// functions of their inputs — every worker width yields the identical
// partition AND identical Eval state.
func TestColoredRefinersWidthBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"mesh":       gen.Mesh(600, 31),
		"weighted":   weightedRandomGraph(500, 32),
		"contracted": contractedMesh(900, 33),
	}
	for name, g := range graphs {
		for _, parts := range []int{2, 5} {
			start := partition.RandomBalanced(g.NumNodes(), parts, rand.New(rand.NewSource(34)))
			requireWidthBitIdentical(t, name+"/climb", g, start, partition.TotalCut, climb)
			requireWidthBitIdentical(t, name+"/refine", g, start, partition.TotalCut, Refine)
		}
	}
}

// Rebalance is width-independent too: from a grossly imbalanced start
// (everything in part 0 except a few nodes), every width makes the same
// moves under every objective.
func TestRebalanceParMatchesSerial(t *testing.T) {
	g := weightedRandomGraph(700, 41)
	rng := rand.New(rand.NewSource(42))
	start := partition.New(g.NumNodes(), 4)
	for i := 0; i < 30; i++ {
		start.Assign[rng.Intn(g.NumNodes())] = uint16(1 + rng.Intn(3))
	}
	for _, o := range partition.Objectives() {
		requireWidthBitIdentical(t, "rebalance/"+o.FlagName(), g, start, o, Rebalance)
	}
}

// The colored climb must preserve the serial climb's core properties:
// monotone fitness and convergence to a state with no improving single move.
func TestColoredClimbMonotoneAndConverges(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.Mesh(300+40*int(seed), seed)
		rng := rand.New(rand.NewSource(seed * 7))
		for _, o := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
			p := partition.RandomBalanced(g.NumNodes(), 4, rng)
			prev := p.Fitness(g, o)
			ev := partition.Tracked(g, p, nil, partition.TotalCut, 1)
			for pass := 0; pass < 50; pass++ {
				moved := Climb(g, p, ev, Config{Objective: o, MaxPasses: 1, Workers: 4})
				fit := p.Fitness(g, o)
				if fit < prev-1e-9 {
					t.Fatalf("seed %d %v: pass %d worsened fitness %v -> %v", seed, o, pass, prev, fit)
				}
				prev = fit
				if moved == 0 {
					break
				}
			}
			// Converged: the serial climber must agree there is nothing left.
			if m := HillClimbEval(g, p, o, 1, partition.NewEval(g, p)); m != 0 {
				t.Errorf("seed %d %v: serial climb found %d moves after colored convergence", seed, o, m)
			}
		}
	}
}
