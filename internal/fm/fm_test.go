package fm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
)

func TestRefineNeverWorsensCut(t *testing.T) {
	g := gen.PaperGraph(167)
	rng := rand.New(rand.NewSource(1))
	for _, parts := range []int{2, 4, 8} {
		p := partition.RandomBalanced(g.NumNodes(), parts, rng)
		before := p.CutSize(g)
		gain := Refine(g, p, nil, Config{})
		after := p.CutSize(g)
		if after > before {
			t.Errorf("parts=%d: cut worsened %v -> %v", parts, before, after)
		}
		if d := (before - after) - gain; d > 1e-9 || d < -1e-9 {
			t.Errorf("parts=%d: reported gain %v != actual %v", parts, gain, before-after)
		}
	}
}

func TestRefineRespectsBalance(t *testing.T) {
	g := gen.PaperGraph(144)
	rng := rand.New(rand.NewSource(2))
	p := partition.RandomBalanced(g.NumNodes(), 4, rng)
	Refine(g, p, nil, Config{})
	sizes := p.PartSizes()
	ideal := float64(g.NumNodes()) / 4
	slack := math.Ceil(ideal/50) + 1
	for q, s := range sizes {
		if float64(s) < math.Floor(ideal)-slack || float64(s) > math.Ceil(ideal)+slack {
			t.Errorf("part %d size %d violates the ceil(2%% of ideal)+1 slack (ideal %.1f): %v", q, s, ideal, sizes)
		}
	}
}

func TestRefineTwoCliques(t *testing.T) {
	// Two K5 cliques joined by one edge; from the worst split FM must find
	// the cut of 1. This requires escaping the local optimum via the
	// best-prefix mechanism.
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j, 1)
			b.AddEdge(i+5, j+5, 1)
		}
	}
	b.AddEdge(0, 5, 1)
	g := b.Build()
	p := partition.New(10, 2)
	p.Assign = []uint16{0, 0, 1, 1, 0, 1, 1, 0, 0, 1}
	Refine(g, p, nil, Config{})
	if cut := p.CutSize(g); cut != 1 {
		t.Errorf("FM cut = %v, want 1 (assign %v)", cut, p.Assign)
	}
}

func TestRefineBeatsSimpleHillClimbOnAverage(t *testing.T) {
	// FM's move-ahead (best prefix) should match or beat one-move-at-a-time
	// hill climbing from identical starts, averaged over several seeds.
	g := gen.PaperGraph(213)
	var fmSum, hcSum float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p1 := partition.RandomBalanced(g.NumNodes(), 8, rng)
		p2 := p1.Clone()
		Refine(g, p1, nil, Config{})
		kl.HillClimbEval(g, p2, partition.TotalCut, 0, nil)
		fmSum += p1.CutSize(g)
		hcSum += p2.CutSize(g)
	}
	if fmSum > hcSum*1.05 {
		t.Errorf("FM mean cut %v clearly worse than hill climbing %v", fmSum/5, hcSum/5)
	}
}

func TestRefineEmptyAndDegenerate(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	p := partition.New(0, 2)
	if gain := Refine(empty, p, nil, Config{}); gain != 0 {
		t.Errorf("empty graph gain %v", gain)
	}
	// Single part: nothing to do.
	g := gen.Mesh(20, 3)
	p1 := partition.New(20, 1)
	if gain := Refine(g, p1, nil, Config{}); gain != 0 {
		t.Errorf("1-part gain %v", gain)
	}
}

func TestRefineWeightedEdges(t *testing.T) {
	// Heavy edge must not be cut: path a-b-c with w(a,b)=10, w(b,c)=1;
	// 2 parts with the default slack of 2 nodes allows any sizes.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	p := partition.New(3, 2)
	p.Assign = []uint16{0, 1, 1} // cuts the heavy edge
	Refine(g, p, nil, Config{})
	if p.Assign[0] == p.Assign[1] {
		return // heavy edge internal: good
	}
	t.Errorf("heavy edge still cut: %v", p.Assign)
}

// Property: Refine never violates validity, never increases cut, and keeps
// sizes within the default slack.
func TestQuickRefineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(80)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(6)
		p := partition.RandomBalanced(n, parts, rng)
		before := p.CutSize(g)
		Refine(g, p, nil, Config{})
		if p.Validate(g) != nil || p.CutSize(g) > before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// workersGraphs are the graph families the width tests run on: a mesh, skew
// node weights, and a contracted coarse level.
func workersGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", gen.Mesh(600, 31)},
		{"weighted", gen.SkewWeights(gen.Mesh(500, 32), 7, 40)},
		{"contracted", pairContract(gen.Mesh(900, 33))},
	}
}

// requireWorkersBitIdentical checks that refine reproduces the Workers=1
// gain and partition bit for bit at every width under obj, on every graph of
// workersGraphs, with the scratch arena shared across runs the way the
// multilevel pipeline shares it. An Eval handed in without boundary
// tracking, or none at all, is rebuilt on entry and must change nothing
// either.
func requireWorkersBitIdentical(t *testing.T, refine func(*graph.Graph, *partition.Partition, *partition.Eval, Config) float64, obj partition.Objective) {
	t.Helper()
	var scratch Scratch
	for _, tc := range workersGraphs() {
		label := tc.name + "/" + obj.FlagName()
		rng := rand.New(rand.NewSource(int64(len(tc.name))*100 + int64(obj)))
		start := partition.RandomBalanced(tc.g.NumNodes(), 8, rng)
		run := func(workers int, ev func(*partition.Partition) *partition.Eval) (*partition.Partition, float64) {
			p := start.Clone()
			gain := refine(tc.g, p, ev(p), Config{Workers: workers, Objective: obj, Scratch: &scratch})
			return p, gain
		}
		tracked := func(p *partition.Partition) *partition.Eval { return partition.NewEvalBoundary(tc.g, p) }
		untracked := func(p *partition.Partition) *partition.Eval { return partition.NewEval(tc.g, p) }
		none := func(*partition.Partition) *partition.Eval { return nil }
		refP, refGain := run(1, tracked)
		check := func(what string, p *partition.Partition, gain float64) {
			t.Helper()
			if gain != refGain {
				t.Fatalf("%s %s: gain %v != %v", label, what, gain, refGain)
			}
			for v := range p.Assign {
				if p.Assign[v] != refP.Assign[v] {
					t.Fatalf("%s %s: node %d in part %d, reference %d", label, what, v, p.Assign[v], refP.Assign[v])
				}
			}
		}
		for _, w := range []int{2, 4, 8, 0} {
			p, gain := run(w, tracked)
			check(fmt.Sprintf("workers=%d", w), p, gain)
		}
		p, gain := run(1, untracked)
		check("untracked ev", p, gain)
		p, gain = run(1, none)
		check("nil ev", p, gain)
	}
}

// The Workers knob must be a pure speed knob: Refine's parallel heap seeding
// pushes the same candidates in the same order at every width, so the move
// sequence — and the final partition — is bit-identical.
func TestRefineWorkersBitIdentical(t *testing.T) {
	requireWorkersBitIdentical(t, Refine, partition.TotalCut)
}
