package fm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// pairContract halves a graph by contracting consecutive node pairs — a
// cheap stand-in for a real matching that still produces what the multilevel
// pipeline feeds FM: summed node weights and merged weighted edges.
func pairContract(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	coarseOf := make([]int, n)
	for v := range coarseOf {
		coarseOf[v] = v / 2
	}
	return graph.Contract(g, coarseOf, (n+1)/2, 1)
}

// RefineColored's (round, color, gain-order) schedule is a pure function of
// the input, so every Workers value must reproduce the Workers=1 partition
// bit for bit under both supported objectives.
func TestRefineEvalParWorkersBitIdentical(t *testing.T) {
	for _, obj := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		requireWorkersBitIdentical(t, RefineColored, obj)
	}
}

// The colored pass must honor the heap pass's semantic guarantees: the
// reported gain is the realized objective improvement, the cut never
// worsens, validity holds, and sizes respect the slack.
func TestRefineEvalParInvariants(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 80 + rng.Intn(400)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(7)
		p := partition.RandomBalanced(n, parts, rng)
		before := p.CutSize(g)
		gain := RefineColored(g, p, nil, Config{Workers: 4})
		after := p.CutSize(g)
		if err := p.Validate(g); err != nil {
			t.Fatalf("seed %d: invalid partition: %v", seed, err)
		}
		if after > before {
			t.Errorf("seed %d: cut worsened %v -> %v", seed, before, after)
		}
		if d := (before - after) - gain; math.Abs(d) > 1e-9 {
			t.Errorf("seed %d: reported gain %v != actual %v", seed, gain, before-after)
		}
		ideal := float64(n) / float64(parts)
		slack := float64(int(math.Ceil(ideal/50)) + 1)
		for q, s := range p.PartSizes() {
			if float64(s) < math.Floor(ideal)-slack || float64(s) > math.Ceil(ideal)+slack {
				t.Errorf("seed %d: part %d size %d outside slack (ideal %.1f)", seed, q, s, ideal)
			}
		}
	}
}

// Colored FM should find cuts of the same character as the heap pass — a
// different deterministic schedule, not a weaker refiner.
func TestRefineEvalParQualityComparable(t *testing.T) {
	g := gen.Mesh(1200, 41)
	var parSum, serSum float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p1 := partition.RandomBalanced(g.NumNodes(), 8, rng)
		p2 := p1.Clone()
		RefineColored(g, p1, nil, Config{Workers: 4})
		Refine(g, p2, nil, Config{})
		parSum += p1.CutSize(g)
		serSum += p2.CutSize(g)
	}
	t.Logf("par mean %v ser mean %v ratio %.3f", parSum/5, serSum/5, parSum/serSum)
	if parSum > serSum*1.10 {
		t.Errorf("parallel FM mean cut %v clearly worse than serial FM %v", parSum/5, serSum/5)
	}
}

// Stop is polled between color rounds, not just between passes: a mid-pass
// stop must still apply the best prefix found so far and leave the
// partition, and the Eval threaded through the pass, in an exactly
// consistent state.
func TestRefineEvalParStopMidPass(t *testing.T) {
	g := gen.Mesh(900, 51)
	rng := rand.New(rand.NewSource(52))
	// Try successively later stop points: poll 1 stops before the first
	// pass, small counts stop between color rounds mid-pass.
	for polls := 1; polls <= 6; polls++ {
		p := partition.RandomBalanced(g.NumNodes(), 8, rng)
		before := p.CutSize(g)
		ev := partition.NewEvalBoundary(g, p)
		calls := 0
		stop := func() bool {
			calls++
			return calls >= polls
		}
		gain := RefineColored(g, p, ev, Config{Workers: 4, Stop: stop})
		if err := p.Validate(g); err != nil {
			t.Fatalf("polls=%d: invalid partition after stop: %v", polls, err)
		}
		if d := (before - p.CutSize(g)) - gain; math.Abs(d) > 1e-9 {
			t.Fatalf("polls=%d: reported gain %v != realized %v", polls, gain, before-p.CutSize(g))
		}
		// The Eval must agree with a from-scratch rebuild: weights, cuts,
		// and the tracked boundary.
		fresh := partition.NewEvalBoundary(g, p)
		for q := range fresh.Cuts {
			if ev.Cuts[q] != fresh.Cuts[q] {
				t.Fatalf("polls=%d: ev.Cuts[%d] = %v, rebuild %v", polls, q, ev.Cuts[q], fresh.Cuts[q])
			}
			if ev.Weights[q] != fresh.Weights[q] {
				t.Fatalf("polls=%d: ev.Weights[%d] = %v, rebuild %v", polls, q, ev.Weights[q], fresh.Weights[q])
			}
		}
		got := ev.AppendBoundary(nil)
		want := fresh.AppendBoundary(nil)
		if len(got) != len(want) {
			t.Fatalf("polls=%d: boundary size %d, rebuild %d", polls, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("polls=%d: boundary[%d] = %d, rebuild %d", polls, i, got[i], want[i])
			}
		}
	}
}

// Like the heap pass, the colored refiner rejects CommVolume loudly: the
// registry routes that objective to the kl climbers.
func TestRefineEvalParPanicsOnCommVolume(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RefineColored(CommVolume) did not panic")
		}
	}()
	g := gen.Mesh(50, 3)
	p := partition.RandomBalanced(50, 2, rand.New(rand.NewSource(1)))
	RefineColored(g, p, nil, Config{Objective: partition.CommVolume})
}

// The incremental worst-part maximum must track a full re-scan through any
// sequence of cut updates, including ties appearing and the unique maximum
// dropping (the rescan path). Both passes score WorstCut moves with it in
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
