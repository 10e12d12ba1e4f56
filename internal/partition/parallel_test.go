package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// parTestWidths are the worker counts every sharded routine is pinned at;
// 0 resolves to GOMAXPROCS.
var parTestWidths = []int{1, 2, 4, 8, 0}

// randomTestGraph builds a connected random graph with integer node and edge
// weights (so reassociated float sums are exact and equality checks can be
// bit-strict).
func randomTestGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(9)))
	}
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, float64(1+rng.Intn(7)))
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
			b.AddEdge(u, v, float64(1+rng.Intn(7)))
		}
	}
	return b.Build()
}

// requireEvalEqual asserts two Evals agree exactly: aggregates bit for bit,
// and — when both track them — the full boundary state (membership,
// external degrees, and the internal bnodes order, which the sharded
// rebuild promises to reproduce exactly) and the comm-volume counters.
func requireEvalEqual(t *testing.T, label string, want, got *Eval) {
	t.Helper()
	for q := range want.Weights {
		if want.Weights[q] != got.Weights[q] {
			t.Fatalf("%s: part %d weight %v != %v", label, q, got.Weights[q], want.Weights[q])
		}
		if want.Cuts[q] != got.Cuts[q] {
			t.Fatalf("%s: part %d cut %v != %v", label, q, got.Cuts[q], want.Cuts[q])
		}
	}
	if want.TracksBoundary() != got.TracksBoundary() || want.TracksCommVol() != got.TracksCommVol() {
		t.Fatalf("%s: tracking mismatch", label)
	}
	if want.TracksCommVol() {
		if !slices.Equal(want.Vols, got.Vols) || !slices.Equal(want.nbrCnt, got.nbrCnt) || !slices.Equal(want.extParts, got.extParts) {
			t.Fatalf("%s: comm-volume state differs", label)
		}
	}
	if !want.TracksBoundary() {
		return
	}
	if len(want.bnodes) != len(got.bnodes) {
		t.Fatalf("%s: boundary size %d != %d", label, len(got.bnodes), len(want.bnodes))
	}
	for i := range want.bnodes {
		if want.bnodes[i] != got.bnodes[i] {
			t.Fatalf("%s: bnodes[%d] = %d != %d", label, i, got.bnodes[i], want.bnodes[i])
		}
	}
	for v := range want.extDeg {
		if want.extDeg[v] != got.extDeg[v] {
			t.Fatalf("%s: extDeg[%d] = %d != %d", label, v, got.extDeg[v], want.extDeg[v])
		}
		if want.bpos[v] != got.bpos[v] {
			t.Fatalf("%s: bpos[%d] = %d != %d", label, v, got.bpos[v], want.bpos[v])
		}
	}
}

func TestTrackWidthBitIdentical(t *testing.T) {
	for _, n := range []int{1, 40, 500, 3000, 6000} {
		g := randomTestGraph(n, int64(n))
		rng := rand.New(rand.NewSource(int64(n) * 3))
		parts := 2 + rng.Intn(7)
		if parts > n {
			parts = n
		}
		p := RandomBalanced(n, parts, rng)
		for _, o := range []Objective{TotalCut, CommVolume} {
			want := Tracked(g, p, nil, o, 1)
			for _, workers := range parTestWidths {
				got := NewEval(g, p)
				got.Track(g, p, o, workers)
				requireEvalEqual(t, fmt.Sprintf("n=%d %v workers=%d", n, o, workers), want, got)
			}
		}
	}
}

func TestTrackAfterMovesMatchesFreshBuild(t *testing.T) {
	// Drive a partition through random moves with a tracked Eval, then
	// rebuild its trackers at several widths: every rebuild must reproduce
	// a fresh build exactly, including on the reused buffers of a dirty
	// Eval.
	g := randomTestGraph(2500, 11)
	rng := rand.New(rand.NewSource(12))
	p := RandomBalanced(2500, 5, rng)
	ev := Tracked(g, p, nil, CommVolume, 1)
	for i := 0; i < 400; i++ {
		ev.Move(g, p, rng.Intn(2500), rng.Intn(5))
	}
	want := Tracked(g, p, nil, CommVolume, 1)
	for _, workers := range parTestWidths {
		// Track under TotalCut keeps the volume counts the Eval tracks.
		got := ev.Clone()
		got.Track(g, p, TotalCut, workers)
		// Aggregates are carried by Move, not rebuilt — with integer weights
		// they must still equal the fresh scan's exactly.
		requireEvalEqual(t, "rebuild", want, got)
	}
}

func TestTrackedBuildsOnlyWhatIsMissing(t *testing.T) {
	g := randomTestGraph(300, 31)
	p := RandomBalanced(300, 4, rand.New(rand.NewSource(32)))
	// nil: a fresh NewEval plus Track.
	ev := NewEval(g, p)
	ev.Track(g, p, CommVolume, 1)
	requireEvalEqual(t, "nil", ev, Tracked(g, p, nil, CommVolume, 4))
	// Untracked: the trackers are added in place, the aggregates kept.
	ev = NewEval(g, p)
	ev.Weights[0] += 0.5 // a marker a rebuild of the aggregates would erase
	if got := Tracked(g, p, ev, TotalCut, 2); got != ev || !ev.TracksBoundary() || ev.TracksCommVol() || ev.Weights[0] != NewEval(g, p).Weights[0]+0.5 {
		t.Fatal("Tracked did not add exactly the boundary tracker to the Eval it was handed")
	}
	// Present trackers are not rebuilt: a marker survives.
	ev.extDeg[0] += 100
	Tracked(g, p, ev, CommVolume, 2)
	if ev.extDeg[0] < 100 || !ev.TracksCommVol() {
		t.Fatal("Tracked rebuilt a tracker that was present or skipped a missing one")
	}
}

func TestBoundaryIndexedAccess(t *testing.T) {
	g := randomTestGraph(300, 21)
	p := RandomBalanced(300, 4, rand.New(rand.NewSource(22)))
	ev := Tracked(g, p, nil, TotalCut, 1)
	seen := make(map[int]bool)
	for i := 0; i < ev.BoundaryLen(); i++ {
		seen[ev.BoundaryNode(i)] = true
	}
	for _, v := range ev.AppendBoundary(nil) {
		if !seen[v] {
			t.Fatalf("boundary node %d missing from indexed access", v)
		}
	}
	if len(seen) != ev.BoundaryLen() {
		t.Fatalf("indexed access yielded %d distinct nodes, boundary has %d", len(seen), ev.BoundaryLen())
	}
}

func TestBoundaryAccessorsPanicWithoutTracking(t *testing.T) {
	g := randomTestGraph(10, 1)
	p := RandomBalanced(10, 2, rand.New(rand.NewSource(2)))
	ev := NewEval(g, p)
	for name, fn := range map[string]func(){
		"BoundaryLen":  func() { ev.BoundaryLen() },
		"BoundaryNode": func() { ev.BoundaryNode(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic without tracking", name)
				}
			}()
			fn()
		}()
	}
}
