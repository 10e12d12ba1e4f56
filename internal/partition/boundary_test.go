package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomWeightedGraph builds a connected random graph with integer node and
// edge weights (package partition cannot import gen).
func randomWeightedGraph(n int, rng *rand.Rand, weighted bool) *graph.Graph {
	b := graph.NewBuilder(n)
	if weighted {
		for v := 0; v < n; v++ {
			b.SetNodeWeight(v, float64(1+rng.Intn(6)))
		}
	}
	w := func() float64 {
		if weighted {
			return float64(1 + rng.Intn(5))
		}
		return 1
	}
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), w())
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v, w())
		}
	}
	return b.Build()
}

// contractedGraph collapses a random weighted graph through a random
// coarse map, reproducing the node-weighted graphs the multilevel pipeline
// refines at its intermediate levels.
func contractedGraph(n int, rng *rand.Rand) *graph.Graph {
	g := randomWeightedGraph(n, rng, true)
	nCoarse := 1 + n/3
	coarseOf := make([]int, n)
	for v := 0; v < n; v++ {
		if v < nCoarse {
			coarseOf[v] = v
		} else {
			coarseOf[v] = rng.Intn(nCoarse)
		}
	}
	return graph.Contract(g, coarseOf, nCoarse, 1)
}

// checkBoundaryMatchesBruteForce drives an Eval through a randomized Move
// sequence and verifies after every move that the tracked boundary set is
// exactly the brute-force recomputation (Partition.BoundaryNodes).
func checkBoundaryMatchesBruteForce(t *testing.T, g *graph.Graph, parts int, rng *rand.Rand) {
	t.Helper()
	n := g.NumNodes()
	p := RandomBalanced(n, parts, rng)
	ev := Tracked(g, p, nil, TotalCut, 1)
	if !ev.TracksBoundary() {
		t.Fatal("Track did not enable boundary tracking")
	}
	check := func(step int) {
		want := p.BoundaryNodes(g)
		got := ev.AppendBoundary(nil)
		if len(got) != len(want) {
			t.Fatalf("step %d: boundary size %d, brute force %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: boundary[%d] = %d, brute force %d", step, i, got[i], want[i])
			}
		}
	}
	check(-1)
	for step := 0; step < 4*n; step++ {
		v := rng.Intn(n)
		to := rng.Intn(parts)
		ev.Move(g, p, v, to)
		check(step)
	}
	// The aggregates must also still match a fresh scan after the walk.
	fresh := NewEval(g, p)
	for q := 0; q < parts; q++ {
		if ev.Weights[q] != fresh.Weights[q] {
			t.Fatalf("part %d weight drifted: %v vs fresh %v", q, ev.Weights[q], fresh.Weights[q])
		}
		if ev.Cuts[q] != fresh.Cuts[q] {
			t.Fatalf("part %d cut drifted: %v vs fresh %v", q, ev.Cuts[q], fresh.Cuts[q])
		}
	}
}

func TestBoundaryInvariantRandomGraph(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(60+int(seed)*40, rng, false)
		checkBoundaryMatchesBruteForce(t, g, 2+int(seed), rng)
	}
}

func TestBoundaryInvariantWeightedGraph(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(80, rng, true)
		checkBoundaryMatchesBruteForce(t, g, 4, rng)
	}
}

func TestBoundaryInvariantContractedGraph(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := contractedGraph(150, rng)
		checkBoundaryMatchesBruteForce(t, g, 3, rng)
	}
}

func TestTrackRebuildsForNewGraph(t *testing.T) {
	// Reusing one Eval across graphs of different sizes is exactly what the
	// multilevel uncoarsening phase does at every projection. The Eval
	// tracks comm volume too, which Track must rebuild for the new graph
	// even when asked for the cut objective.
	rng := rand.New(rand.NewSource(5))
	small := randomWeightedGraph(40, rng, true)
	big := randomWeightedGraph(160, rng, false)

	ps := RandomBalanced(small.NumNodes(), 4, rng)
	ev := Tracked(small, ps, nil, CommVolume, 1)

	pb := RandomBalanced(big.NumNodes(), 4, rng)
	ev.Weights = NewEval(big, pb).Weights
	ev.Cuts = NewEval(big, pb).Cuts
	ev.Track(big, pb, TotalCut, 1)
	want := pb.BoundaryNodes(big)
	got := ev.AppendBoundary(nil)
	if len(got) != len(want) {
		t.Fatalf("after reset: boundary size %d, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after reset: boundary[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// And moves keep it exact on the new graph.
	for step := 0; step < 200; step++ {
		ev.Move(big, pb, rng.Intn(big.NumNodes()), rng.Intn(4))
	}
	want = pb.BoundaryNodes(big)
	got = ev.AppendBoundary(nil)
	if len(got) != len(want) {
		t.Fatalf("after moves: boundary size %d, brute force %d", len(got), len(want))
	}
	if ev.CommVol() != pb.CommVolume(big) {
		t.Fatalf("after moves: tracked volume %v, rescan %v", ev.CommVol(), pb.CommVolume(big))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after moves: boundary[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCloneCopiesBoundaryTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomWeightedGraph(50, rng, false)
	p := RandomBalanced(g.NumNodes(), 3, rng)
	ev := Tracked(g, p, nil, TotalCut, 1)
	cl := ev.Clone()
	if !cl.TracksBoundary() {
		t.Fatal("clone lost boundary tracking")
	}
	// Diverging the clone's partition must not corrupt the original.
	p2 := p.Clone()
	for step := 0; step < 100; step++ {
		cl.Move(g, p2, rng.Intn(g.NumNodes()), rng.Intn(3))
	}
	want := p.BoundaryNodes(g)
	got := ev.AppendBoundary(nil)
	if len(got) != len(want) {
		t.Fatalf("original boundary corrupted by clone moves: %d vs %d nodes", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("original boundary[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBoundaryPanicsWithoutTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomWeightedGraph(20, rng, false)
	p := RandomBalanced(g.NumNodes(), 2, rng)
	ev := NewEval(g, p)
	if ev.TracksBoundary() {
		t.Fatal("plain NewEval tracks the boundary")
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendBoundary on a non-tracking Eval did not panic")
		}
	}()
	ev.AppendBoundary(nil)
}
