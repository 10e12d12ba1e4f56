package kl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
