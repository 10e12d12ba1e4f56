package partition

import (
	"math/bits"
	"math/rand"
	"slices"
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
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, w())
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
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

// checkBoundaryMatchesBruteForce drives an Eval of p through a randomized
// Move sequence and verifies after every move that the tracked boundary set
// is exactly the brute-force recomputation (Partition.BoundaryNodes). It
// returns how many of those checks found the boundary sparse enough
// (b·log2(b) <= n) for AppendBoundary to sort its members rather than scan
// every node's counter.
func checkBoundaryMatchesBruteForce(t *testing.T, g *graph.Graph, p *Partition, rng *rand.Rand) (sparse int) {
	t.Helper()
	n, parts := g.NumNodes(), p.Parts
	ev := Tracked(g, p, nil, TotalCut, 1)
	if !ev.TracksBoundary() {
		t.Fatal("Track did not enable boundary tracking")
	}
	check := func(step int) {
		want := p.BoundaryNodes(g)
		if b := len(want); b*bits.Len(uint(b)) <= n {
			sparse++
		}
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
	return sparse
}

func TestBoundaryInvariantRandomGraph(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(60+int(seed)*40, rng, false)
		checkBoundaryMatchesBruteForce(t, g, RandomBalanced(g.NumNodes(), 2+int(seed), rng), rng)
	}
}

func TestBoundaryInvariantWeightedGraph(t *testing.T) {
	for seed := int64(11); seed <= 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(80, rng, true)
		checkBoundaryMatchesBruteForce(t, g, RandomBalanced(g.NumNodes(), 4, rng), rng)
	}
}

func TestBoundaryInvariantContractedGraph(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := contractedGraph(150, rng)
		checkBoundaryMatchesBruteForce(t, g, RandomBalanced(g.NumNodes(), 3, rng), rng)
	}
}

// A block partition of a long path starts with a handful of boundary nodes,
// so the walk checks AppendBoundary's sorting route until its random moves
// make the boundary dense enough for the scanning route.
func TestBoundaryInvariantSparseBoundary(t *testing.T) {
	const n, parts = 1500, 4
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1)
	}
	g := b.Build()
	p := New(n, parts)
	for v := range p.Assign {
		p.Assign[v] = uint16(v * parts / n)
	}
	checks := 4*n + 1
	if sparse := checkBoundaryMatchesBruteForce(t, g, p, rand.New(rand.NewSource(31))); sparse == 0 || sparse == checks {
		t.Fatalf("%d of %d checks saw a sparse boundary: one AppendBoundary route went unchecked", sparse, checks)
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

// CloneInto must leave dst exactly ev's copy whatever dst held before: its
// storage is reused, trackers ev lacks are dropped, and the copy diverges
// from ev without touching it.
func TestCloneIntoCopiesEveryTracker(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomWeightedGraph(60, rng, true)
	other := randomWeightedGraph(90, rng, false)
	p := RandomBalanced(g.NumNodes(), 4, rng)
	ev := Tracked(g, p, nil, CommVolume, 1)
	dst := Tracked(other, RandomBalanced(other.NumNodes(), 4, rng), nil, CommVolume, 1)
	cl := ev.CloneInto(dst)
	if cl != dst {
		t.Fatal("CloneInto did not return dst")
	}
	p2 := p.Clone()
	for step := 0; step < 300; step++ {
		v, to := rng.Intn(g.NumNodes()), rng.Intn(4)
		cl.Move(g, p2, v, to)
		if !slices.Equal(cl.AppendBoundary(nil), p2.BoundaryNodes(g)) {
			t.Fatalf("step %d: copied boundary differs from brute force", step)
		}
	}
	if cl.CommVol() != p2.CommVolume(g) {
		t.Fatalf("copied volume %v, rescan %v", cl.CommVol(), p2.CommVolume(g))
	}
	fresh := NewEval(g, p2)
	if !slices.Equal(cl.Weights, fresh.Weights) || !slices.Equal(cl.Cuts, fresh.Cuts) {
		t.Fatalf("copied aggregates %v %v, fresh %v %v", cl.Weights, cl.Cuts, fresh.Weights, fresh.Cuts)
	}
	if !slices.Equal(ev.AppendBoundary(nil), p.BoundaryNodes(g)) || ev.CommVol() != p.CommVolume(g) {
		t.Fatal("moves on the copy changed the original")
	}

	plain := NewEval(g, p).CloneInto(dst)
	if plain.TracksBoundary() || plain.TracksCommVol() {
		t.Fatal("CloneInto kept trackers the source does not have")
	}
	empty := graph.NewBuilder(0).Build()
	if !Tracked(empty, New(0, 2), nil, TotalCut, 1).Clone().TracksBoundary() {
		t.Fatal("clone of an empty graph's tracked Eval lost its tracking")
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
