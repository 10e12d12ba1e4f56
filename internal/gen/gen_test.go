package gen

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	// 3x4 grid: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17 edges.
	if g.NumEdges() != 17 {
		t.Fatalf("edges = %d, want 17", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Error("grid not connected")
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // (1,1) interior
		t.Errorf("interior degree = %d", g.Degree(5))
	}
}

func TestGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Grid(0,3) should panic")
		}
	}()
	Grid(0, 3)
}

func TestMeshDeterministic(t *testing.T) {
	a := Mesh(100, 42)
	b := Mesh(100, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different meshes: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	a.Edges(func(u, v int, w float64) bool {
		if !b.HasEdge(u, v) {
			t.Errorf("edge {%d,%d} missing in second build", u, v)
			return false
		}
		return true
	})
	c := Mesh(100, 43)
	if c.NumEdges() == a.NumEdges() {
		// Different seeds could coincidentally match edge counts, but then
		// the edge sets should still differ.
		same := true
		a.Edges(func(u, v int, w float64) bool {
			if !c.HasEdge(u, v) {
				same = false
				return false
			}
			return true
		})
		if same {
			t.Error("different seeds produced identical meshes")
		}
	}
}

func TestMeshConnectedAndPlanar(t *testing.T) {
	for _, n := range []int{10, 78, 167} {
		g := Mesh(n, 7)
		if g.NumNodes() != n {
			t.Fatalf("n=%d: got %d nodes", n, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("n=%d: mesh disconnected", n)
		}
		if g.NumEdges() > 3*n-6 {
			t.Errorf("n=%d: %d edges exceeds planar bound %d", n, g.NumEdges(), 3*n-6)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestPaperGraphSizes(t *testing.T) {
	for _, n := range PaperSizes {
		g := PaperGraph(n)
		if g.NumNodes() != n {
			t.Errorf("PaperGraph(%d) has %d nodes", n, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("PaperGraph(%d) disconnected", n)
		}
	}
}

func TestPaperGraphRejectsUnknownSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PaperGraph(100) should panic")
		}
	}()
	PaperGraph(100)
}

func TestRandomGeometricConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomGeometric(rng, 60, 0.08) // radius small: forces stitching
	if !g.IsConnected() {
		t.Error("RandomGeometric not connected after stitching")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The bucketed neighbor search must produce exactly the pair-scan edge set:
// for every pair, adjacency iff distance <= radius (modulo the stitching
// edges, which only ever join distinct components). Checked at the diverse
// suite's rgg-2000 parameters so the committed bench baselines stay valid.
func TestRandomGeometricMatchesPairScan(t *testing.T) {
	const n, radius = 2000, 0.05
	rng := rand.New(rand.NewSource(SuiteSeed + 2000))
	g := RandomGeometric(rng, n, radius)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r2 := radius * radius
	missing := 0
	for i := 0; i < n; i++ {
		pi := g.Coord(i)
		for j := i + 1; j < n; j++ {
			pj := g.Coord(j)
			d2 := (pi.X-pj.X)*(pi.X-pj.X) + (pi.Y-pj.Y)*(pi.Y-pj.Y)
			switch {
			case d2 <= r2 && !g.HasEdge(i, j):
				t.Fatalf("pair {%d,%d} within radius but not adjacent", i, j)
			case d2 > r2 && g.HasEdge(i, j):
				// Allowed only for stitching edges; count and bound them.
				missing++
			}
		}
	}
	if missing > 20 {
		t.Errorf("%d beyond-radius edges; stitching should add only a handful", missing)
	}
}

// The ROADMAP's streaming-scale prerequisite: a 100k-node random geometric
// graph must generate in seconds, not the minutes the O(n²) pair scan took.
// The wall-clock bound is deliberately loose (CI machines vary); the real
// regression guard is that quadratic behavior would blow far past it.
func TestRandomGeometric100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node generation in -short mode")
	}
	const n = 100_000
	start := time.Now()
	rng := rand.New(rand.NewSource(SuiteSeed + n))
	g := RandomGeometric(rng, n, 0.005)
	elapsed := time.Since(start)
	if g.NumNodes() != n {
		t.Fatalf("generated %d nodes", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Error("not connected")
	}
	if avgDeg := 2 * float64(g.NumEdges()) / n; avgDeg < 4 || avgDeg > 12 {
		t.Errorf("average degree %.1f outside the expected RGG band", avgDeg)
	}
	if elapsed > 20*time.Second {
		t.Errorf("100k-node generation took %s; the grid-bucketed search should stay in single-digit seconds", elapsed)
	}
	t.Logf("100k nodes, %d edges in %s", g.NumEdges(), elapsed)
}

func TestRefineAddsExactlyK(t *testing.T) {
	base := Mesh(118, 11)
	rng := rand.New(rand.NewSource(2))
	grown := Refine(base, 21, rng)
	if grown.NumNodes() != 139 {
		t.Fatalf("grown nodes = %d, want 139", grown.NumNodes())
	}
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}
	if !grown.IsConnected() {
		t.Error("grown mesh disconnected")
	}
	// Old nodes keep their coordinates.
	for v := 0; v < base.NumNodes(); v++ {
		if base.Coord(v) != grown.Coord(v) {
			t.Fatalf("node %d moved during refinement", v)
		}
	}
}

func TestRefineIsLocal(t *testing.T) {
	base := Mesh(183, 5)
	rng := rand.New(rand.NewSource(3))
	grown := Refine(base, 30, rng)
	// New nodes should be spatially clustered: their bounding box must be
	// much smaller than the unit square.
	minX, minY, maxX, maxY := 2.0, 2.0, -1.0, -1.0
	for v := base.NumNodes(); v < grown.NumNodes(); v++ {
		p := grown.Coord(v)
		if p.X < minX {
			minX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if (maxX-minX) > 0.8 || (maxY-minY) > 0.8 {
		t.Errorf("new nodes not local: bbox %.2fx%.2f", maxX-minX, maxY-minY)
	}
	// Majority of old edges far from the region survive: at least half of
	// all original edges should be present in the grown graph.
	kept := 0
	base.Edges(func(u, v int, w float64) bool {
		if grown.HasEdge(u, v) {
			kept++
		}
		return true
	})
	if kept < base.NumEdges()/2 {
		t.Errorf("refinement destroyed %d of %d original edges", base.NumEdges()-kept, base.NumEdges())
	}
}

func TestIncrementalPairDeterministic(t *testing.T) {
	c := IncrementalCase{118, 21}
	b1, g1 := IncrementalPair(c)
	b2, g2 := IncrementalPair(c)
	if b1.NumEdges() != b2.NumEdges() || g1.NumEdges() != g2.NumEdges() {
		t.Error("IncrementalPair not deterministic")
	}
	if g1.NumNodes() != 139 {
		t.Errorf("grown nodes = %d", g1.NumNodes())
	}
}

func TestAllIncrementalCases(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range PaperIncrementalCases {
		base, grown := IncrementalPair(c)
		if base.NumNodes() != c.Base || grown.NumNodes() != c.Base+c.Added {
			t.Errorf("case %+v: sizes %d -> %d", c, base.NumNodes(), grown.NumNodes())
		}
		if !grown.IsConnected() {
			t.Errorf("case %+v: grown graph disconnected", c)
		}
	}
}

// Property: meshes at arbitrary small sizes are connected, planar-bounded,
// and valid.
func TestQuickMeshInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		g := Mesh(n, seed)
		return g.Validate() == nil && g.IsConnected() && g.NumEdges() <= 3*n-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
