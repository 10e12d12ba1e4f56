package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

func TestDenseLaplacianRowSumsZero(t *testing.T) {
	g := gen.Mesh(40, 1)
	L := DenseLaplacian(g)
	for i := 0; i < L.N; i++ {
		var s float64
		for j := 0; j < L.N; j++ {
			s += L.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestLaplacianOpMatchesDense(t *testing.T) {
	g := gen.Mesh(35, 2)
	L := DenseLaplacian(g)
	op := laplacianOp{g}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	d1 := make([]float64, len(x))
	d2 := make([]float64, len(x))
	L.MulVec(d1, x)
	op.Apply(d2, x)
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-10 {
			t.Fatalf("sparse/dense Laplacian disagree at %d: %v vs %v", i, d1[i], d2[i])
		}
	}
}

func TestFiedlerPathSplitsInHalf(t *testing.T) {
	// On a path, the Fiedler vector is monotone: one half positive, one
	// negative, so Bisect must cut the path in the middle (cut = 1).
	b := graph.NewBuilder(10)
	for i := 0; i+1 < 10; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(1))
	side, err := Bisect(g, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sides contiguous: side changes exactly once along the path.
	changes := 0
	for i := 1; i < 10; i++ {
		if side[i] != side[i-1] {
			changes++
		}
	}
	if changes != 1 {
		t.Errorf("path bisection cut %d edges, want 1 (sides %v)", changes, side)
	}
	var count [2]int
	for _, s := range side {
		count[s]++
	}
	if count[0] != 5 || count[1] != 5 {
		t.Errorf("unbalanced bisection %v", count)
	}
}

func TestFiedlerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Disconnected graph.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	if _, err := Fiedler(b.Build(), rng, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
	// Too small.
	if _, err := Fiedler(graph.NewBuilder(1).Build(), rng, 0); err == nil {
		t.Error("single node accepted")
	}
}

func TestFiedlerOrthogonalToOnes(t *testing.T) {
	g := gen.Mesh(60, 4)
	rng := rand.New(rand.NewSource(2))
	f, err := Fiedler(g, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, x := range f {
		s += x
	}
	if math.Abs(s) > 1e-6 {
		t.Errorf("Fiedler vector not orthogonal to ones: sum = %v", s)
	}
	// Rayleigh quotient should equal lambda_2 > 0 for connected graphs.
	op := laplacianOp{g}
	lf := make([]float64, len(f))
	op.Apply(lf, f)
	lam := linalg.Dot(f, lf) / linalg.Dot(f, f)
	if lam <= 0 {
		t.Errorf("lambda_2 = %v, want > 0", lam)
	}
}

func TestPartitionPowersOfTwo(t *testing.T) {
	g := gen.PaperGraph(78)
	rng := rand.New(rand.NewSource(5))
	for _, parts := range []int{1, 2, 4, 8} {
		p, err := Partition(g, parts, rng, 0)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		sizes := p.PartSizes()
		if len(sizes) != parts {
			t.Fatalf("parts=%d: got %d parts", parts, len(sizes))
		}
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Errorf("parts=%d: imbalanced sizes %v", parts, sizes)
		}
	}
}

func TestPartitionRejectsNonPowerOfTwo(t *testing.T) {
	g := gen.Mesh(20, 1)
	rng := rand.New(rand.NewSource(1))
	for _, parts := range []int{0, 3, 6, -2} {
		if _, err := Partition(g, parts, rng, 0); err == nil {
			t.Errorf("parts=%d accepted", parts)
		}
	}
}

func TestRSBBeatsRandomOnMesh(t *testing.T) {
	g := gen.PaperGraph(167)
	rng := rand.New(rand.NewSource(7))
	p, err := Partition(g, 8, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	rsbCut := p.CutSize(g)
	// Average random balanced cut for comparison.
	var randCut float64
	const trials = 5
	for i := 0; i < trials; i++ {
		rp := randomBalanced(g.NumNodes(), 8, rng)
		randCut += rp.CutSize(g)
	}
	randCut /= trials
	if rsbCut >= randCut/2 {
		t.Errorf("RSB cut %v not clearly better than random %v", rsbCut, randCut)
	}
}

func TestBisectGrid(t *testing.T) {
	// RSB on a 8x8 grid must find a cut close to the optimal 8.
	g := gen.Grid(8, 8)
	rng := rand.New(rand.NewSource(3))
	p, err := Partition(g, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutSize(g); cut > 10 {
		t.Errorf("grid bisection cut = %v, want <= 10 (optimal 8)", cut)
	}
}

func TestLanczosPathUsedForLargeGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 500 nodes exceeds denseThreshold, exercising the sparse path.
	g := gen.Mesh(500, 11)
	rng := rand.New(rand.NewSource(13))
	p, err := Partition(g, 2, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.PartSizes()
	if d := sizes[0] - sizes[1]; d > 1 || d < -1 {
		t.Errorf("sizes %v", sizes)
	}
	// A spectral bisection of a 500-node mesh should cut well under 10% of
	// edges.
	if cut := p.CutSize(g); cut > float64(g.NumEdges())/10 {
		t.Errorf("cut = %v of %d edges", cut, g.NumEdges())
	}
}

func randomBalanced(n, parts int, rng *rand.Rand) *partitionT {
	p := &partitionT{assign: make([]uint16, n), parts: parts}
	perm := rng.Perm(n)
	for i, v := range perm {
		p.assign[v] = uint16(i % parts)
	}
	return p
}

// partitionT mirrors partition.Partition minimally to avoid an import cycle
// in this white-box test package (spectral imports partition already; this
// local type just carries a CutSize helper for random baselines).
type partitionT struct {
	assign []uint16
	parts  int
}

func (p *partitionT) CutSize(g *graph.Graph) float64 {
	var cut float64
	g.Edges(func(u, v int, w float64) bool {
		if p.assign[u] != p.assign[v] {
			cut += w
		}
		return true
	})
	return cut
}

// Property: RSB partitions are always balanced within 1 node per level of
// recursion and cover every node.
func TestQuickRSBBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(80)
		g := gen.Mesh(n, seed)
		parts := []int{2, 4, 8}[rng.Intn(3)]
		p, err := Partition(g, parts, rng, 0)
		if err != nil {
			return false
		}
		if p.Validate(g) != nil {
			return false
		}
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
		// Each of log2(parts) bisection levels can introduce 1 node of
		// imbalance.
		levels := 0
		for q := parts; q > 1; q /= 2 {
			levels++
		}
		return max-min <= levels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(27))}); err != nil {
		t.Error(err)
	}
}

// The Lanczos iteration budget must be honored end to end: a tiny budget
// still yields a valid, deterministic power-of-two partition (at some split
// quality cost), and passing 0 selects the solver default of 40.
func TestPartitionIterBudget(t *testing.T) {
	g := gen.Mesh(900, 77) // above denseThreshold: the sparse path runs
	zero, err := Partition(g, 4, rand.New(rand.NewSource(5)), 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Partition(g, 4, rand.New(rand.NewSource(5)), 40)
	if err != nil {
		t.Fatal(err)
	}
	for v := range zero.Assign {
		if zero.Assign[v] != full.Assign[v] {
			t.Fatalf("budget 0 diverged from the default budget 40 at node %d", v)
		}
	}
	for _, budget := range []int{6, 12} {
		a, err := Partition(g, 4, rand.New(rand.NewSource(5)), budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		b, err := Partition(g, 4, rand.New(rand.NewSource(5)), budget)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Assign {
			if a.Assign[v] != b.Assign[v] {
				t.Fatalf("budget %d not deterministic at node %d", budget, v)
			}
		}
	}
}
