package ga

import (
	"testing"

	"repro/internal/gen"
)

func TestStatsSeriesLengthsAndBounds(t *testing.T) {
	g := gen.Mesh(50, 51)
	e, err := New(g, smallConfig(4, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(12)
	s := e.Stats()
	want := 13 // generation 0 plus 12 steps
	if len(s.BestFitness) != want || len(s.BestCut) != want {
		t.Fatalf("series lengths: fitness=%d cut=%d, want %d",
			len(s.BestFitness), len(s.BestCut), want)
	}
	for i, cut := range s.BestCut {
		if cut < 0 || cut > float64(g.NumEdges()) {
			t.Errorf("gen %d: best cut %v out of [0, %d]", i, cut, g.NumEdges())
		}
	}
	if last := s.BestCut[want-1]; last != e.Best().Part.CutSize(g) {
		t.Errorf("last best cut %v, want the best individual's %v", last, e.Best().Part.CutSize(g))
	}
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
