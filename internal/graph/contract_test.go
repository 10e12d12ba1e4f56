package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// contractTestGraph builds a connected-ish random weighted graph for contraction
// tests (package graph cannot import gen).
func contractTestGraph(n int, rng *rand.Rand, coords bool) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(4)))
		if coords {
			b.SetCoord(v, Point{X: rng.Float64(), Y: rng.Float64()})
		}
	}
	seen := map[[2]int]bool{} // each edge once: Build refuses a repeat
	for v := 1; v < n; v++ {
		u := rng.Intn(v) // spanning tree
		seen[[2]int{u, v}] = true
		b.AddEdge(v, u, float64(1+rng.Intn(5)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if e := [2]int{min(u, v), max(u, v)}; u != v && !seen[e] {
			seen[e] = true
			b.AddEdge(u, v, float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// contractViaBuilder is the straightforward map-based reference
// implementation Contract must match exactly. It assembles the coarse graph
// with RefBuild, so no RowSorter takes part in it.
func contractViaBuilder(g *Graph, coarseOf []int, nCoarse int) *Graph {
	b := NewBuilder(nCoarse)
	wsum := make([]float64, nCoarse)
	var cx, cy []float64
	if g.HasCoords() {
		cx = make([]float64, nCoarse)
		cy = make([]float64, nCoarse)
	}
	for v := 0; v < g.NumNodes(); v++ {
		c := coarseOf[v]
		w := g.NodeWeight(v)
		wsum[c] += w
		if g.HasCoords() {
			p := g.Coord(v)
			cx[c] += w * p.X
			cy[c] += w * p.Y
		}
	}
	for c := 0; c < nCoarse; c++ {
		b.SetNodeWeight(c, wsum[c])
		if g.HasCoords() && wsum[c] > 0 {
			b.SetCoord(c, Point{X: cx[c] / wsum[c], Y: cy[c] / wsum[c]})
		}
	}
	acc := make(map[[2]int]float64)
	g.Edges(func(u, v int, w float64) bool {
		cu, cv := coarseOf[u], coarseOf[v]
		if cu == cv {
			return true
		}
		if cu > cv {
			cu, cv = cv, cu
		}
		acc[[2]int{cu, cv}] += w
		return true
	})
	for e, w := range acc {
		b.AddEdge(e[0], e[1], w)
	}
	return RefBuild(b)
}

func randomCoarseMap(n int, rng *rand.Rand) ([]int, int) {
	nCoarse := 1 + n/3
	coarseOf := make([]int, n)
	// Guarantee every coarse node is hit so none are empty-but-unused.
	for c := 0; c < nCoarse && c < n; c++ {
		coarseOf[c] = c
	}
	for v := nCoarse; v < n; v++ {
		coarseOf[v] = rng.Intn(nCoarse)
	}
	return coarseOf, nCoarse
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if math.Abs(a.NodeWeight(v)-b.NodeWeight(v)) > 1e-12 {
			t.Fatalf("node %d weight %v != %v", v, a.NodeWeight(v), b.NodeWeight(v))
		}
		an, bn := a.Neighbors(v), b.Neighbors(v)
		if len(an) != len(bn) {
			t.Fatalf("node %d degree %d != %d", v, len(an), len(bn))
		}
		aw, bw := a.EdgeWeights(v), b.EdgeWeights(v)
		for i := range an {
			if an[i] != bn[i] || math.Abs(aw[i]-bw[i]) > 1e-9 {
				t.Fatalf("node %d adjacency differs at %d: (%d,%v) != (%d,%v)",
					v, i, an[i], aw[i], bn[i], bw[i])
			}
		}
		if a.HasCoords() != b.HasCoords() {
			t.Fatalf("coords presence mismatch")
		}
		if a.HasCoords() {
			pa, pb := a.Coord(v), b.Coord(v)
			if math.Abs(pa.X-pb.X) > 1e-9 || math.Abs(pa.Y-pb.Y) > 1e-9 {
				t.Fatalf("node %d coord %v != %v", v, pa, pb)
			}
		}
	}
}

func TestContractMatchesBuilderReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		g := contractTestGraph(n, rng, seed%2 == 0)
		coarseOf, nCoarse := randomCoarseMap(n, rng)
		fast := Contract(g, coarseOf, nCoarse, 1)
		if err := fast.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		graphsEqual(t, fast, contractViaBuilder(g, coarseOf, nCoarse))
	}
}

// powerLawTestGraph grows a preferential-attachment graph: each node after
// the first k+1 links to k distinct earlier nodes picked in proportion to
// their degree, so a few hubs end up with long rows.
func powerLawTestGraph(n, k int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	var ends []int // every edge's endpoints: a degree-proportional urn
	for v := 1; v <= k; v++ {
		b.AddEdge(0, v, 1)
		ends = append(ends, 0, v)
	}
	for v := k + 1; v < n; v++ {
		picked := map[int]bool{}
		for len(picked) < k {
			picked[ends[rng.Intn(len(ends))]] = true
		}
		for u := range picked {
			b.AddEdge(v, u, float64(1+rng.Intn(5)))
			ends = append(ends, v, u)
		}
	}
	return b.Build()
}

// starsTestGraph joins node i to degrees[i] distinct nodes drawn from the
// whole range, each edge once.
func starsTestGraph(n int, degrees []int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	seen := map[[2]int]bool{}
	for c, d := range degrees {
		for added := 0; added < d; {
			u := rng.Intn(n)
			if e := [2]int{min(u, c), max(u, c)}; u != c && !seen[e] {
				seen[e] = true
				b.AddEdge(c, u, float64(1+rng.Intn(5)))
				added++
			}
		}
	}
	return b.Build()
}

// Contract must match the reference on hub-heavy graphs at every width,
// with coarse rows on every path of its RowSorter: short rows, long rows
// within the dense rule and long rows past it.
func TestContractMatchesRefBuildOnHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tcase struct {
		name     string
		g        *Graph
		coarseOf []int
		nCoarse  int
	}
	var cases []tcase
	pl := powerLawTestGraph(3000, 4, rng)
	for _, nc := range []int{300, 1500} {
		coarseOf := make([]int, pl.NumNodes())
		for v := range coarseOf {
			coarseOf[v] = v % nc
		}
		rng.Shuffle(len(coarseOf), func(i, j int) { coarseOf[i], coarseOf[j] = coarseOf[j], coarseOf[i] })
		cases = append(cases, tcase{fmt.Sprintf("powerlaw/%d", nc), pl, coarseOf, nc})
	}
	// Nodes 0, 2 and 4 are the centers, each its own pair: star 0 spreads
	// 30 leaves over 20,000 coarse ids, past the dense rule, and stars 2 and
	// 4 are dense hubs.
	stars := starsTestGraph(40000, []int{30, 0, 400, 0, 3000}, rng)
	pairs := make([]int, stars.NumNodes())
	for v := range pairs {
		pairs[v] = v / 2
	}
	cases = append(cases, tcase{"stars/pairs", stars, pairs, stars.NumNodes() / 2})
	var kinds [3]int
	for _, c := range cases {
		ref := contractViaBuilder(c.g, c.coarseOf, c.nCoarse)
		for v := 0; v < ref.NumNodes(); v++ {
			if row := ref.Neighbors(v); len(row) > 0 {
				kinds[rowKind(len(row), int(row[len(row)-1]-row[0])+1)]++
			}
		}
		var s ContractScratch
		for _, workers := range []int{1, 2, 4} {
			got := s.Contract(c.g, c.coarseOf, c.nCoarse, workers)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s at width %d: %v", c.name, workers, err)
			}
			graphsEqual(t, got, ref)
			graphsEqual(t, Contract(c.g, c.coarseOf, c.nCoarse, workers), ref)
		}
	}
	if kinds[rowShort] == 0 || kinds[rowDense] == 0 || kinds[rowSparse] == 0 {
		t.Errorf("coarse rows short/dense/sparse = %v; want every kind", kinds)
	}
}

func TestContractPreservesTotalNodeWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := contractTestGraph(200, rng, false)
	coarseOf, nCoarse := randomCoarseMap(200, rng)
	coarse := Contract(g, coarseOf, nCoarse, 1)
	if math.Abs(coarse.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
		t.Errorf("total node weight %v -> %v", g.TotalNodeWeight(), coarse.TotalNodeWeight())
	}
}

func TestContractIdentityMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := contractTestGraph(60, rng, true)
	id := make([]int, g.NumNodes())
	for v := range id {
		id[v] = v
	}
	graphsEqual(t, Contract(g, id, g.NumNodes(), 1), g)
}

func TestContractAllToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := contractTestGraph(50, rng, false)
	coarseOf := make([]int, g.NumNodes())
	coarse := Contract(g, coarseOf, 1, 1)
	if coarse.NumNodes() != 1 || coarse.NumEdges() != 0 {
		t.Fatalf("all-to-one gave %d nodes, %d edges", coarse.NumNodes(), coarse.NumEdges())
	}
	if math.Abs(coarse.NodeWeight(0)-g.TotalNodeWeight()) > 1e-9 {
		t.Errorf("weight %v != %v", coarse.NodeWeight(0), g.TotalNodeWeight())
	}
}

func TestContractPanicsOnBadMap(t *testing.T) {
	g := contractTestGraph(10, rand.New(rand.NewSource(1)), false)
	for name, fn := range map[string]func(){
		"short map":    func() { Contract(g, make([]int, 3), 2, 1) },
		"out of range": func() { Contract(g, make([]int, 10), 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkContract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := contractTestGraph(5000, rng, false)
	coarseOf, nCoarse := randomCoarseMap(5000, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contract(g, coarseOf, nCoarse, 1)
	}
}

func BenchmarkContractViaBuilder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := contractTestGraph(5000, rng, false)
	coarseOf, nCoarse := randomCoarseMap(5000, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contractViaBuilder(g, coarseOf, nCoarse)
	}
}

func TestContractWorkersBitIdentical(t *testing.T) {
	// The worker count is a pure speed knob: any value must produce the
	// exact same coarse graph, adjacency order and float accumulation
	// included.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		g := contractTestGraph(n, rng, seed%2 == 0)
		coarseOf, nCoarse := randomCoarseMap(n, rng)
		ref := Contract(g, coarseOf, nCoarse, 1)
		for _, workers := range []int{2, 3, 8, 0} {
			got := Contract(g, coarseOf, nCoarse, workers)
			graphsEqual(t, got, ref)
		}
	}
}

func TestContractScratchReuseBitIdentical(t *testing.T) {
	// One scratch recycled across graphs of varying size, weighting, and
	// coordinate presence must reproduce the fresh-allocation Contract bit
	// for bit at every worker count: buffer capacity left over from an
	// earlier (even larger) contraction is invisible to the result. The
	// sizes deliberately shrink and regrow so reuse exercises both the
	// reslice and the regrow paths.
	var s ContractScratch
	rng := rand.New(rand.NewSource(42))
	for trial, n := range []int{800, 150, 2400, 60, 1200} {
		g := contractTestGraph(n, rng, trial%2 == 1)
		coarseOf, nCoarse := randomCoarseMap(n, rng)
		ref := Contract(g, coarseOf, nCoarse, 1)
		for _, workers := range []int{1, 2, 4, 8} {
			graphsEqual(t, s.Contract(g, coarseOf, nCoarse, workers), ref)
		}
	}
}
