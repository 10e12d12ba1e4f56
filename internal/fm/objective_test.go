package fm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

// Under the maxcut objective, the kept prefix is scored by the worst-part
// delta: the returned gain must equal the actual max_q C(q) reduction, and
// the objective must never worsen.
func TestRefineMaxcutReducesWorstPart(t *testing.T) {
	g := gen.PaperGraph(167)
	rng := rand.New(rand.NewSource(3))
	for _, parts := range []int{2, 4, 8} {
		p := partition.RandomBalanced(g.NumNodes(), parts, rng)
		before := p.MaxPartCut(g)
		gain := Refine(g, p, nil, Config{Objective: partition.WorstCut})
		after := p.MaxPartCut(g)
		if after > before {
			t.Errorf("parts=%d: max part cut worsened %v -> %v", parts, before, after)
		}
		if d := (before - after) - gain; math.Abs(d) > 1e-9 {
			t.Errorf("parts=%d: reported gain %v != actual reduction %v", parts, gain, before-after)
		}
	}
}

// On a state FM-converged for total cut, the maxcut objective must find a
// strictly better worst part on at least one of these seeds — otherwise the
// Objective knob is not steering the prefix selection at all.
func TestRefineMaxcutBeatsCutObjectiveSomewhere(t *testing.T) {
	improved := false
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.PowerLaw(500, 3, seed)
		rng := rand.New(rand.NewSource(seed))
		p := partition.RandomBalanced(g.NumNodes(), 4, rng)
		q := p.Clone()
		Refine(g, p, nil, Config{})
		Refine(g, q, nil, Config{Objective: partition.WorstCut})
		if q.MaxPartCut(g) < p.MaxPartCut(g) {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("maxcut-objective FM never beat cut-objective FM's max_part_cut on any seed")
	}
}

// The Workers knob stays a pure speed knob under the maxcut objective.
func TestRefineMaxcutWorkersBitIdentical(t *testing.T) {
	requireWorkersBitIdentical(t, Refine, partition.WorstCut)
}

// FM cannot run the comm-volume objective (its lazily-materialized
// connectivity rows go stale on locked neighbors); handing it one anyway is a
// programming error that must fail loudly, not silently optimize the cut.
func TestRefineCommVolPanics(t *testing.T) {
	g := gen.Mesh(40, 5)
	p := partition.RandomBalanced(g.NumNodes(), 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Error("Refine accepted the CommVolume objective")
		}
	}()
	Refine(g, p, nil, Config{Objective: partition.CommVolume})
}
