package ga

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Every generation's BestCut is the best individual's cut, read from its
// Eval: exactly a fresh CutSize scan, also on integer node and edge weights
// with hill climbing moving the offspring.
func TestStatsSeriesLengthsAndBounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		climb bool
	}{
		{"unit", gen.Mesh(50, 51), false},
		{"int-weighted/climb", intWeightedMesh(60, 52), true},
	} {
		g := tc.g
		cfg := smallConfig(4, Uniform{})
		cfg.HillClimb = tc.climb
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step <= 12; step++ {
			if step > 0 {
				e.Step()
			}
			s := e.Stats()
			if last, want := s.BestCut[len(s.BestCut)-1], e.Best().Part.CutSize(g); last != want {
				t.Fatalf("%s: generation %d best cut %v, want the best individual's %v", tc.name, step, last, want)
			}
		}
		s := e.Stats()
		want := 13 // generation 0 plus 12 steps
		if len(s.BestFitness) != want || len(s.BestCut) != want {
			t.Fatalf("%s: series lengths: fitness=%d cut=%d, want %d",
				tc.name, len(s.BestFitness), len(s.BestCut), want)
		}
		var total float64
		g.Edges(func(_, _ int, w float64) bool { total += w; return true })
		for i, cut := range s.BestCut {
			if cut < 0 || cut > total {
				t.Errorf("%s: gen %d: best cut %v out of [0, %v]", tc.name, i, cut, total)
			}
		}
	}
}

// intWeightedMesh is a mesh with integer node weights (gen.SkewWeights) and
// integer edge weights in 1..5.
func intWeightedMesh(n int, seed int64) *graph.Graph {
	g := gen.SkewWeights(gen.Mesh(n, seed), seed, 9)
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, g.NodeWeight(v))
		b.SetCoord(v, g.Coord(v))
	}
	g.Edges(func(u, v int, _ float64) bool {
		b.AddEdge(u, v, float64(1+rng.Intn(5)))
		return true
	})
	return b.Build()
}

// diversity is the population's mean per-gene disagreement with its fittest
// member: 0 when converged, near 1 - 1/parts for random partitions.
func diversity(pop []*Individual) float64 {
	ref := pop[0]
	for _, ind := range pop[1:] {
		if ind.Fitness > ref.Fitness {
			ref = ind
		}
	}
	differ := 0
	for _, ind := range pop {
		for j, q := range ind.Part.Assign {
			if q != ref.Part.Assign[j] {
				differ++
			}
		}
	}
	return float64(differ) / float64(len(pop)*len(ref.Part.Assign))
}

func TestDiversityShrinksUnderSelection(t *testing.T) {
	// Selection pressure homogenizes the population: diversity in the final
	// generation should be lower than in the initial random population.
	g := gen.PaperGraph(78)
	e, err := New(g, Config{Parts: 4, PopSize: 40, Crossover: Uniform{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	first := diversity(e.Population())
	e.Run(40)
	if last := diversity(e.Population()); last >= first {
		t.Errorf("diversity did not shrink: %v -> %v", first, last)
	}
}

func TestStatsCopyIsIndependent(t *testing.T) {
	g := gen.Mesh(30, 53)
	e, err := New(g, smallConfig(2, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	s := e.Stats()
	s.BestCut[0] = 99
	if e.Stats().BestCut[0] == 99 {
		t.Error("Stats returns aliased slices")
	}
}
