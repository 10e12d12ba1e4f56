package multilevel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fm"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func TestCoarsenHalvesRoughly(t *testing.T) {
	g := gen.Mesh(200, 1)
	rng := rand.New(rand.NewSource(2))
	coarse, coarseOf := Coarsen(g, rng, 1)
	if coarse.NumNodes() >= g.NumNodes() {
		t.Fatalf("coarsening did not shrink: %d -> %d", g.NumNodes(), coarse.NumNodes())
	}
	// Heavy-edge matching on a connected mesh should merge most nodes:
	// coarse size between n/2 and ~0.75n.
	if coarse.NumNodes() > 3*g.NumNodes()/4 {
		t.Errorf("weak coarsening: %d -> %d", g.NumNodes(), coarse.NumNodes())
	}
	if len(coarseOf) != g.NumNodes() {
		t.Fatalf("coarseOf length %d", len(coarseOf))
	}
	for v, c := range coarseOf {
		if c < 0 || c >= coarse.NumNodes() {
			t.Fatalf("node %d maps to out-of-range coarse node %d", v, c)
		}
	}
}

func TestCoarsenPreservesTotalNodeWeight(t *testing.T) {
	g := gen.Mesh(150, 3)
	rng := rand.New(rand.NewSource(4))
	coarse, _ := Coarsen(g, rng, 1)
	if math.Abs(coarse.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
		t.Errorf("node weight changed: %v -> %v", g.TotalNodeWeight(), coarse.TotalNodeWeight())
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenPreservesCutStructure(t *testing.T) {
	// The cut of a coarse partition equals the cut of its projection:
	// collapsing preserves total inter-group edge weight.
	g := gen.Mesh(120, 5)
	rng := rand.New(rand.NewSource(6))
	coarse, coarseOf := Coarsen(g, rng, 1)
	cp := partition.RandomBalanced(coarse.NumNodes(), 4, rng)
	fp := partition.New(g.NumNodes(), 4)
	for v := range fp.Assign {
		fp.Assign[v] = cp.Assign[coarseOf[v]]
	}
	if math.Abs(cp.CutSize(coarse)-fp.CutSize(g)) > 1e-9 {
		t.Errorf("cut not preserved: coarse %v vs fine %v", cp.CutSize(coarse), fp.CutSize(g))
	}
}

func TestCoarsenKeepsConnectivity(t *testing.T) {
	g := gen.Mesh(100, 7)
	rng := rand.New(rand.NewSource(8))
	coarse, _ := Coarsen(g, rng, 1)
	if !coarse.IsConnected() {
		t.Error("coarsening disconnected a connected graph")
	}
}

func rsbInner(g *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error) {
	return spectral.Partition(g, parts, rng, 0)
}

func gaInner(g *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error) {
	est := partition.RandomBalanced(g.NumNodes(), parts, rng)
	e, err := ga.New(g, ga.Config{
		Parts:     parts,
		PopSize:   40,
		Crossover: ga.NewDKNUX(est),
		Seed:      rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	return e.Run(40).Part, nil
}

func TestPartitionWithRSBInner(t *testing.T) {
	g := gen.Mesh(400, 9)
	p, err := Partition(g, Config{Parts: 4, Seed: 1}, rsbInner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Quality sanity: multilevel should beat random by a wide margin.
	rng := rand.New(rand.NewSource(2))
	randCut := partition.RandomBalanced(g.NumNodes(), 4, rng).CutSize(g)
	if cut := p.CutSize(g); cut > randCut/2 {
		t.Errorf("multilevel cut %v vs random %v", cut, randCut)
	}
}

func TestPartitionWithGAInner(t *testing.T) {
	g := gen.Mesh(300, 10)
	p, err := Partition(g, Config{Parts: 4, CoarsestSize: 50, Seed: 3}, gaInner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Balance after refinement: within a few nodes.
	sizes := p.PartSizes()
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 8 {
		t.Errorf("multilevel+GA imbalance: %v", sizes)
	}
}

func TestPartitionErrors(t *testing.T) {
	g := gen.Mesh(50, 1)
	if _, err := Partition(g, Config{Parts: 0}, rsbInner); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := Partition(g, Config{Parts: 2}, nil); err == nil {
		t.Error("nil inner accepted")
	}
}

func TestSmallGraphSkipsCoarsening(t *testing.T) {
	// A graph already below CoarsestSize goes straight to the inner
	// partitioner.
	g := gen.Mesh(30, 2)
	p, err := Partition(g, Config{Parts: 2, CoarsestSize: 64, Seed: 1}, rsbInner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: coarsening preserves total edge weight minus internal (matched)
// edges — equivalently, coarse total edge weight <= fine total edge weight,
// and node weight is exactly conserved.
func TestQuickCoarsenConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		g := gen.Mesh(n, seed)
		coarse, coarseOf := Coarsen(g, rng, 1)
		if coarse.Validate() != nil || len(coarseOf) != n {
			return false
		}
		if math.Abs(coarse.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
			return false
		}
		var fineW, coarseW float64
		g.Edges(func(u, v int, w float64) bool {
			fineW += w
			return true
		})
		coarse.Edges(func(u, v int, w float64) bool {
			coarseW += w
			return true
		})
		return coarseW <= fineW+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestCoarsenWorkersBitIdentical(t *testing.T) {
	// Coarsening's propose phase is parallel, its claim sweep sequential in
	// the seeded random order: every worker count must reproduce the same
	// matching, coarse graph, and fine-to-coarse map bit for bit.
	g := gen.Mesh(1200, 11)
	refRng := rand.New(rand.NewSource(7))
	refCoarse, refMap := Coarsen(g, refRng, 1)
	for _, workers := range []int{2, 3, 8, 0} {
		rng := rand.New(rand.NewSource(7))
		coarse, coarseOf := Coarsen(g, rng, workers)
		if coarse.NumNodes() != refCoarse.NumNodes() || coarse.NumEdges() != refCoarse.NumEdges() {
			t.Fatalf("workers=%d: coarse shape %d/%d vs %d/%d", workers,
				coarse.NumNodes(), coarse.NumEdges(), refCoarse.NumNodes(), refCoarse.NumEdges())
		}
		for v := range coarseOf {
			if coarseOf[v] != refMap[v] {
				t.Fatalf("workers=%d: node %d maps to %d, reference %d", workers, v, coarseOf[v], refMap[v])
			}
		}
	}
}

func TestPartitionWorkersBitIdentical(t *testing.T) {
	// The whole V-cycle — hierarchy, coarse solve, refinement — must be a
	// pure function of the seed, independent of the pipeline width.
	g := gen.Mesh(900, 13)
	for _, ref := range []Refiner{RefineKLFM, RefineFM} {
		base, err := Partition(g, Config{Parts: 4, Seed: 5, Refiner: ref, Workers: 1}, rsbInner)
		if err != nil {
			t.Fatalf("%v: %v", ref, err)
		}
		for _, workers := range []int{2, 3, 4, 8, 0} {
			p, err := Partition(g, Config{Parts: 4, Seed: 5, Refiner: ref, Workers: workers}, rsbInner)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", ref, workers, err)
			}
			for v := range p.Assign {
				if p.Assign[v] != base.Assign[v] {
					t.Fatalf("%v workers=%d: node %d in part %d, reference %d",
						ref, workers, v, p.Assign[v], base.Assign[v])
				}
			}
		}
	}
}

// Randomized cross-layer width check: the whole V-cycle — parallel
// projection, sharded boundary rebuilds, colored refinement — on random
// graph shapes (plain mesh, integer-weighted random graph) must reproduce
// the Workers=1 partition bit for bit at every width and for every refiner.
func TestQuickPartitionWorkersBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		graphs := map[string]*graph.Graph{
			"mesh":     gen.Mesh(300+100*int(seed), seed),
			"weighted": randomWeightedGraph(250+80*int(seed), seed*17),
		}
		for name, g := range graphs {
			for _, ref := range []Refiner{RefineKLFM, RefineFM} {
				base, err := Partition(g, Config{Parts: 4, Seed: seed, Refiner: ref, Workers: 1}, klInner)
				if err != nil {
					t.Fatalf("%s %v: %v", name, ref, err)
				}
				for _, workers := range []int{2, 4, 8} {
					p, err := Partition(g, Config{Parts: 4, Seed: seed, Refiner: ref, Workers: workers}, klInner)
					if err != nil {
						t.Fatalf("%s %v workers=%d: %v", name, ref, workers, err)
					}
					for v := range p.Assign {
						if p.Assign[v] != base.Assign[v] {
							t.Fatalf("%s seed=%d %v workers=%d: node %d differs", name, seed, ref, workers, v)
						}
					}
				}
			}
		}
	}
}

// FM in its production seat: on a contracted hierarchy level, starting
// from a coarser level's partition projected onto it with the Eval carried
// across the projection, followed by the rebalance the pipeline runs after
// it. Every width must reproduce the Workers=1 partition and gain bit for
// bit, with the FM arena shared across runs as the pipeline shares it.
func TestPartitionFMWorkersBitIdentical(t *testing.T) {
	var scratch fm.Scratch
	for seed := int64(1); seed <= 2; seed++ {
		graphs := map[string]*graph.Graph{
			"mesh":     gen.Mesh(1400, seed),
			"weighted": randomWeightedGraph(1000, seed*23),
		}
		for name, g := range graphs {
			rng := rand.New(rand.NewSource(seed))
			level, _ := Coarsen(g, rng, 1)
			coarse, coarseOf := Coarsen(level, rng, 1)
			cp, err := klInner(coarse, 4, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
				run := func(workers int) (*partition.Partition, float64) {
					ev := partition.NewEval(coarse, cp)
					ev.Track(coarse, cp, obj, 1)
					p := partition.New(level.NumNodes(), 4)
					for v := range p.Assign {
						p.Assign[v] = cp.Assign[coarseOf[v]]
					}
					ev.Track(level, p, obj, workers)
					gain := fm.Refine(level, p, ev, fm.Config{MaxPasses: 4, Workers: workers, Objective: obj, Scratch: &scratch})
					kl.Rebalance(level, p, ev, kl.Config{Objective: obj, Workers: workers})
					return p, gain
				}
				base, baseGain := run(1)
				for _, workers := range []int{2, 4, 8} {
					p, gain := run(workers)
					if gain != baseGain {
						t.Fatalf("%s seed=%d %v workers=%d: gain %v, reference %v", name, seed, obj, workers, gain, baseGain)
					}
					for v := range p.Assign {
						if p.Assign[v] != base.Assign[v] {
							t.Fatalf("%s seed=%d %v workers=%d: node %d differs", name, seed, obj, workers, v)
						}
					}
				}
			}
		}
	}
}

func randomWeightedGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(7)))
	}
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, float64(1+rng.Intn(9)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
			b.AddEdge(u, v, float64(1+rng.Intn(9)))
		}
	}
	return b.Build()
}

func TestPartitionStats(t *testing.T) {
	g := gen.Mesh(2000, 15)
	var st Stats
	p, err := Partition(g, Config{Parts: 4, Seed: 1, Workers: 2, Stats: &st}, rsbInner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if st.Levels == 0 {
		t.Error("Stats.Levels not populated")
	}
	if st.Coarsen <= 0 || st.CoarseSolve <= 0 {
		t.Errorf("phase timings not populated: %+v", st)
	}
	if st.Project <= 0 || st.Refine <= 0 {
		t.Errorf("uncoarsening timings not populated: %+v", st)
	}
	// The default refiner is KLFM: climbs and FM passes both run, so the
	// per-family breakdown must be populated and bounded by the total.
	if st.RefineClimb <= 0 || st.RefineFM <= 0 {
		t.Errorf("refine breakdown not populated: %+v", st)
	}
	if st.RefineLP+st.RefineClimb+st.RefineFM > st.Refine {
		t.Errorf("refine breakdown exceeds total: %+v", st)
	}
	// HierarchyEdges counts the hierarchy BuildHierarchy builds from the
	// run's seed.
	levels, coarsest := BuildHierarchy(g, 64, maxLevels, rand.New(rand.NewSource(1)), 1)
	edges := coarsest.NumEdges()
	for _, l := range levels {
		edges += l.Graph.NumEdges()
	}
	if st.Levels != len(levels) || st.HierarchyEdges != edges {
		t.Errorf("Stats reports %d levels and %d hierarchy edges; BuildHierarchy gives %d and %d",
			st.Levels, st.HierarchyEdges, len(levels), edges)
	}
}

// FM's work counters are per run and deterministic: under TotalCut every
// heap pass ends at most 101 moves past its best prefix, so the moves made
// exceed the moves kept by at most 101 per pass, and every width (and a rerun
// on the pooled arena) counts the same work, and builds the same hierarchy.
func TestPartitionFMCounts(t *testing.T) {
	g := gen.Mesh(5000, 101)
	for _, ref := range []Refiner{RefineKLFM, RefineFM} {
		counts := func(workers int) [5]int {
			var st Stats
			if _, err := Partition(g, Config{Parts: 8, Seed: 3, Refiner: ref, Workers: workers, Stats: &st}, klInner); err != nil {
				t.Fatalf("%v workers=%d: %v", ref, workers, err)
			}
			return [5]int{st.FMMoves, st.FMKept, st.FMPasses, st.Levels, st.HierarchyEdges}
		}
		base := counts(1)
		moves, kept, passes := base[0], base[1], base[2]
		if passes == 0 || kept > moves || moves > kept+101*passes {
			t.Errorf("%v: %d moves, %d kept, %d passes: want kept <= moves <= kept + 101*passes", ref, moves, kept, passes)
		}
		if base[3] == 0 || base[4] <= g.NumEdges() {
			t.Errorf("%v: %d levels holding %d edges, input %d edges", ref, base[3], base[4], g.NumEdges())
		}
		for _, workers := range []int{4, 1} {
			if got := counts(workers); got != base {
				t.Errorf("%v workers=%d: counts (moves, kept, passes, levels, hierarchy edges) %v, reference %v", ref, workers, got, base)
			}
		}
		t.Logf("%v: %d moves, %d kept, %d passes, %d levels, %d hierarchy edges", ref, moves, kept, passes, base[3], base[4])
	}
}
