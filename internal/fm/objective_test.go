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

// The incremental worst-part maximum must track a full re-scan through any
// sequence of cut updates, including ties appearing and the unique maximum
// dropping (the rescan path). The heap pass scores WorstCut moves with it in
// place of two O(parts) scans per move, so the kept prefix must be what a
// scan would have produced.
func TestRunningMaxMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		parts := 2 + rng.Intn(14)
		cuts := make([]float64, parts)
		for q := range cuts {
			cuts[q] = float64(rng.Intn(6)) // small range: frequent ties
		}
		var m runningMax
		m.reset(cuts)
		scan := func() float64 {
			best := math.Inf(-1)
			for _, c := range cuts {
				if c > best {
					best = c
				}
			}
			if best > 0 {
				return best
			}
			return 0
		}
		for step := 0; step < 200; step++ {
			q := rng.Intn(parts)
			d := float64(rng.Intn(9) - 4)
			m.apply(cuts, q, d)
			if got, want := m.cur(), scan(); got != want {
				t.Fatalf("trial %d step %d: running max %v, scan %v (cuts %v)", trial, step, got, want, cuts)
			}
		}
	}
}
