package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// integerMesh returns a mesh with integer node and edge weights: every sum
// an Eval keeps is exact, whatever order its moves came in.
func integerMesh(n int, seed int64) *graph.Graph {
	g := gen.Mesh(n, seed)
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(4)))
	}
	g.Edges(func(u, v int, _ float64) bool {
		b.AddEdge(u, v, float64(1+rng.Intn(5)))
		return true
	})
	return b.Build()
}

// checkPopulation verifies what every engine owes its population after a
// Step or an Inject. Each member's Eval is that of its Part: equal to a fresh
// NewEval, bit for bit when exact is set and within 1e-9 relative otherwise,
// tracking the boundary exactly when the engine climbs. Its Fitness is the
// Eval's. And no two of the members, the best and the DKNUX estimate share
// any storage, so recycling one never corrupts another.
func checkPopulation(t *testing.T, e *Engine, exact bool) {
	t.Helper()
	g, o := e.g, e.cfg.Objective
	same := func(a, b float64) bool {
		if exact {
			return a == b
		}
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	owner := map[any]string{}
	claim := func(who string, ptrs ...any) {
		for _, p := range ptrs {
			if prev, ok := owner[p]; ok {
				t.Fatalf("%s shares storage with %s", who, prev)
			}
			owner[p] = who
		}
	}
	claimInd := func(who string, ind *Individual) {
		claim(who, ind, ind.Part, &ind.Part.Assign[0], ind.ev, &ind.ev.Weights[0], &ind.ev.Cuts[0])
	}
	for i, ind := range e.pop {
		who := fmt.Sprintf("member %d", i)
		ev, fresh := ind.ev, partition.NewEval(g, ind.Part)
		for q := range fresh.Weights {
			if !same(ev.Weights[q], fresh.Weights[q]) || !same(ev.Cuts[q], fresh.Cuts[q]) {
				t.Fatalf("%s part %d: Eval weight %v cut %v, NewEval %v %v",
					who, q, ev.Weights[q], ev.Cuts[q], fresh.Weights[q], fresh.Cuts[q])
			}
		}
		if ev.TracksBoundary() != e.cfg.HillClimb {
			t.Fatalf("%s: TracksBoundary %v with HillClimb %v", who, ev.TracksBoundary(), e.cfg.HillClimb)
		}
		if ev.TracksBoundary() && !slices.Equal(ev.AppendBoundary(nil), ind.Part.BoundaryNodes(g)) {
			t.Fatalf("%s: tracked boundary differs from BoundaryNodes", who)
		}
		if f := ev.Fitness(g, o); ind.Fitness != f {
			t.Fatalf("%s: Fitness %v, its Eval's %v", who, ind.Fitness, f)
		}
		claimInd(who, ind)
	}
	claimInd("best", e.best)
	if prov, ok := e.cfg.Crossover.(interface{ Estimate() *partition.Partition }); ok {
		est := prov.Estimate()
		claim("estimate", est, &est.Assign[0])
	}
}

// runChecked steps an engine for gens generations, injecting its own best
// every fifth one as a migrant, and checks the population after every Step
// and Inject. It returns how many migrants were accepted.
func runChecked(t *testing.T, g *graph.Graph, cfg Config, gens int, exact bool) int {
	t.Helper()
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPopulation(t, e, exact)
	accepted := 0
	for gen := 1; gen <= gens; gen++ {
		e.Step()
		checkPopulation(t, e, exact)
		if gen%5 == 0 {
			if e.Inject(e.Best().Part) {
				accepted++
			}
			checkPopulation(t, e, exact)
		}
	}
	return accepted
}

// Every offspring's Eval is its parent's copy moved to the child's genes,
// in storage recycled from the replaced generation; on integer weights it
// must be exactly the Eval a fresh scan builds, under every configuration
// that changes what is copied, moved or recycled.
func TestPopulationEvalsExactAndUnshared(t *testing.T) {
	g := integerMesh(150, 9)
	const parts = 4
	rng := rand.New(rand.NewSource(3))
	seeds := []*partition.Partition{
		partition.RandomBalanced(g.NumNodes(), parts, rng),
		partition.RandomBalanced(g.NumNodes(), parts, rng),
	}
	crossovers := map[string]func() Crossover{
		"dknux": func() Crossover { return NewDKNUX(seeds[0]) },
		"ux":    func() Crossover { return Uniform{} },
		"2pt":   func() Crossover { return KPoint{K: 2} },
	}
	accepted := 0
	for _, hc := range []bool{false, true} {
		for _, o := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
			for _, workers := range []int{1, 3} {
				for name, x := range crossovers {
					for _, seeded := range []bool{false, true} {
						cfg := Config{
							Parts: parts, Objective: o, PopSize: 24, Crossover: x(),
							HillClimb: hc, EvalWorkers: workers, Seed: 7,
						}
						if seeded {
							cfg.Seeds = seeds
						}
						t.Run(fmt.Sprintf("hc=%v/%s/w%d/%s/seeded=%v", hc, o.FlagName(), workers, name, seeded), func(t *testing.T) {
							accepted += runChecked(t, g, cfg, 15, true)
						})
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Error("no migrant was accepted: the Inject path went unchecked")
	}
}

// On fractional weights a moved Eval sums in move order, not scan order, so
// it may differ from NewEval in the last bits, but no further.
func TestPopulationEvalsCloseOnFractionalWeights(t *testing.T) {
	g := weightedMesh(120, 5)
	est := partition.RandomBalanced(g.NumNodes(), 4, rand.New(rand.NewSource(1)))
	for _, hc := range []bool{false, true} {
		runChecked(t, g, Config{Parts: 4, PopSize: 24, Crossover: NewDKNUX(est), HillClimb: hc, Seed: 2}, 15, false)
	}
}
