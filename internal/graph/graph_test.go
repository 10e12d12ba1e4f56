package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// path builds the path graph 0-1-2-...-(n-1) with unit weights.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

// randomGraph builds a random graph on n nodes with edge probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v, 1+rng.Float64())
			}
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should be connected by convention")
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(2, 1, 1)
	b.AddEdge(3, 0, 4)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("missing edge {0,1}")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge {0,2}")
	}
	if w := g.EdgeWeightBetween(3, 0); w != 4 {
		t.Errorf("weight {3,0} = %v, want 4", w)
	}
	if w := g.EdgeWeightBetween(0, 2); w != 0 {
		t.Errorf("weight of absent edge = %v, want 0", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self loop":    func() { NewBuilder(2).AddEdge(1, 1, 1) },
		"out of range": func() { NewBuilder(2).AddEdge(0, 5, 1) },
		"negative":     func() { NewBuilder(2).AddEdge(-1, 0, 1) },
		// Each edge is given once; Build refuses a repeat in either
		// orientation, whatever its weight.
		"duplicate":         func() { buildTwice(0, 1, 0, 1) },
		"duplicate flipped": func() { buildTwice(0, 1, 1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		})
	}
}

// buildTwice builds a 3-node path 2-0-1 whose edge {0,1} is given twice, as
// {a,b} and then {c,d}.
func buildTwice(a, b, c, d int) *Graph {
	bld := NewBuilder(3)
	bld.AddEdge(a, b, 1)
	bld.AddEdge(2, 0, 1)
	bld.AddEdge(c, d, 7)
	return bld.Build()
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 40, 0.2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	deg := 0
	for v := 0; v < g.NumNodes(); v++ {
		deg += g.Degree(v)
	}
	if deg != 2*g.NumEdges() {
		t.Errorf("sum of degrees %d != 2*edges %d", deg, 2*g.NumEdges())
	}
}

func TestEdgesIterationOrderAndCount(t *testing.T) {
	g := path(5)
	var got [][2]int
	g.Edges(func(u, v int, w float64) bool {
		got = append(got, [2]int{u, v})
		return true
	})
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := path(10)
	calls := 0
	g.Edges(func(u, v int, w float64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop after %d calls, want 3", calls)
	}
}

func TestCoords(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 1)
	b.SetCoord(0, Point{1, 2})
	b.SetCoord(1, Point{3, 4})
	g := b.Build()
	if !g.HasCoords() {
		t.Fatal("HasCoords = false")
	}
	if g.Coord(1) != (Point{3, 4}) {
		t.Errorf("Coord(1) = %v", g.Coord(1))
	}
	g2 := path(2)
	defer func() {
		if recover() == nil {
			t.Error("Coord on graph without coords should panic")
		}
	}()
	g2.Coord(0)
}

// A node that is given edges after coordinates are enabled, but never a
// coordinate of its own, sits at zero.
func TestCoordsAfterAddNode(t *testing.T) {
	b := NewBuilder(2)
	b.SetCoord(0, Point{1, 1})
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.Coord(1) != (Point{}) {
		t.Errorf("late node coord = %v, want zero", g.Coord(1))
	}
}

// WithNodeWeights replaces only the node weights: the structure is g's, g
// keeps its own weights, and a weight vector of the wrong length panics.
func TestWithNodeWeights(t *testing.T) {
	g := path(3)
	h := g.WithNodeWeights([]float64{0.5, 2, 3})
	if h.NodeWeight(0) != 0.5 || h.TotalNodeWeight() != 5.5 || g.NodeWeight(0) != 1 || g.TotalNodeWeight() != 3 {
		t.Errorf("weights: h %v (total %v), g %v (total %v)", h.NodeWeight(0), h.TotalNodeWeight(), g.NodeWeight(0), g.TotalNodeWeight())
	}
	if h.NumEdges() != 2 || !h.HasEdge(0, 1) || !h.HasEdge(1, 2) || h.Validate() != nil {
		t.Errorf("structure changed: %d edges", h.NumEdges())
	}
	defer func() {
		if recover() == nil {
			t.Error("2 weights for 3 nodes: no panic")
		}
	}()
	g.WithNodeWeights([]float64{1, 1})
}

func TestBFSLevels(t *testing.T) {
	g := path(5)
	level := g.BFS(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if level[v] != want {
			t.Errorf("level[%d] = %d, want %d", v, level[v], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	// nodes 2,3 isolated
	g := b.Build()
	level := g.BFS(0)
	if level[2] != -1 || level[3] != -1 {
		t.Errorf("unreachable nodes got levels %d,%d", level[2], level[3])
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (two chains plus isolated node 5)", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Error("components not grouped correctly")
	}
	if comp[0] == comp[2] || comp[0] == comp[5] || comp[2] == comp[5] {
		t.Error("distinct components share a label")
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := path(9)
	v := g.PseudoPeripheral(4) // middle of the path
	if v != 0 && v != 8 {
		t.Errorf("PseudoPeripheral(4) = %d, want an endpoint", v)
	}
}

func TestInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 0.3)
	nodes := []int{2, 5, 7, 11, 13}
	sub, orig := g.InducedSubgraph(nodes)
	if sub.NumNodes() != len(nodes) {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub invalid: %v", err)
	}
	// Every sub edge must exist in g with the same weight, and vice versa.
	sub.Edges(func(u, v int, w float64) bool {
		if g.EdgeWeightBetween(orig[u], orig[v]) != w {
			t.Errorf("sub edge {%d,%d} not in parent", orig[u], orig[v])
		}
		return true
	})
	for i, a := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(a, nodes[j]) != sub.HasEdge(i, j) {
				t.Errorf("edge presence mismatch for {%d,%d}", a, nodes[j])
			}
		}
	}
}

// Property: Build always emits a graph that passes Validate, and degree sums
// equal twice the edge count.
func TestQuickBuildValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Float64()*0.5)
		if g.Validate() != nil {
			return false
		}
		deg := 0
		for v := 0; v < n; v++ {
			deg += g.Degree(v)
		}
		return deg == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: BFS levels differ by at most 1 across any edge.
func TestQuickBFSLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.2)
		level := g.BFS(0)
		ok := true
		g.Edges(func(u, v int, w float64) bool {
			lu, lv := level[u], level[v]
			if lu >= 0 && lv >= 0 {
				d := lu - lv
				if d < -1 || d > 1 {
					ok = false
					return false
				}
			}
			if (lu == -1) != (lv == -1) {
				ok = false // one endpoint reachable, the other not: impossible
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// TotalNodeWeight is stored at construction; it must equal a fresh sum in
// node order, bit for bit, for every constructor and for the zero Graph.
func TestTotalNodeWeightStored(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	fresh := func(g *Graph) float64 {
		var s float64
		for v := 0; v < g.NumNodes(); v++ {
			s += g.NodeWeight(v)
		}
		return s
	}
	b := NewBuilder(51) // node 50 is isolated
	for v := 0; v < 50; v++ {
		b.SetNodeWeight(v, 0.1+rng.Float64()*3) // fractional: summation order shows
		if v > 0 {
			b.AddEdge(v, rng.Intn(v), 1)
		}
	}
	b.SetNodeWeight(50, 2.5)
	built := b.Build()
	induced, _ := built.InducedSubgraph([]int{3, 1, 4, 15, 9, 26})
	csr, err := FromCSR(append([]int32(nil), built.offsets...), append([]int32(nil), built.adj...),
		append([]float64(nil), built.edgeWeight...), append([]float64(nil), built.nodeWeight...), nil)
	if err != nil {
		t.Fatal(err)
	}
	coarseOf, nCoarse := randomCoarseMap(built.NumNodes(), rng)
	reversed := make([]float64, built.NumNodes())
	for v := range reversed {
		reversed[v] = built.NodeWeight(len(reversed) - 1 - v)
	}
	for name, g := range map[string]*Graph{
		"zero":       {},
		"empty":      NewBuilder(0).Build(),
		"builder":    built,
		"fromCSR":    csr,
		"contract":   Contract(built, coarseOf, nCoarse, 1),
		"induced":    induced,
		"reweighted": built.WithNodeWeights(reversed),
	} {
		if got, want := g.TotalNodeWeight(), fresh(g); got != want {
			t.Errorf("%s: TotalNodeWeight = %v, fresh sum %v", name, got, want)
		}
	}
}

// SortAdjacency's insertion sort of short rows and its sort.Sort of long ones
// must both give sort.Sort's order, weights moving with their neighbors.
func TestSortAdjacencyMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(201)
		if trial < 2*shortRow {
			n = trial % (2*shortRow + 1) // every length around the cutoff
		}
		idx := make([]int32, n)
		wts := make([]float64, n)
		for i, k := range rng.Perm(4 * (n + 1))[:n] { // distinct, as in every emitted row
			idx[i], wts[i] = int32(k), rng.Float64()
		}
		wantIdx := append([]int32(nil), idx...)
		wantWts := append([]float64(nil), wts...)
		sort.Sort(&adjSorter{wantIdx, wantWts})
		SortAdjacency(idx, wts)
		for i := range idx {
			if idx[i] != wantIdx[i] || wts[i] != wantWts[i] {
				t.Fatalf("len %d: entry %d = (%d, %v), sort.Sort gives (%d, %v)", n, i, idx[i], wts[i], wantIdx[i], wantWts[i])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.Build()

	// Corrupt in targeted ways and check Validate notices each.
	corrupt := func(name string, mutate func(*Graph)) {
		t.Helper()
		c := &Graph{
			offsets:    append([]int32(nil), g.offsets...),
			adj:        append([]int32(nil), g.adj...),
			edgeWeight: append([]float64(nil), g.edgeWeight...),
			nodeWeight: append([]float64(nil), g.nodeWeight...),
			numEdges:   g.numEdges,
		}
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted graph", name)
		}
	}
	corrupt("edge count", func(c *Graph) { c.numEdges = 7 })
	corrupt("node weights", func(c *Graph) { c.nodeWeight = c.nodeWeight[:1] })
	corrupt("asymmetric weight", func(c *Graph) { c.edgeWeight[0] = 99 })
	corrupt("out of range neighbor", func(c *Graph) { c.adj[0] = 77 })
	corrupt("self loop", func(c *Graph) {
		// Make node 1's first neighbor itself.
		c.adj[c.offsets[1]] = 1
	})

	// Hand-built rows that break only the symmetry or order rules: each
	// has an even entry count and a matching edge count.
	fromRows := func(rows ...[]int32) *Graph {
		c := &Graph{offsets: []int32{0}, nodeWeight: make([]float64, len(rows))}
		for _, row := range rows {
			c.adj = append(c.adj, row...)
			c.offsets = append(c.offsets, int32(len(c.adj)))
		}
		c.edgeWeight = make([]float64, len(c.adj))
		c.numEdges = len(c.adj) / 2
		return c
	}
	for name, c := range map[string]*Graph{
		// {0,1} is whole; {0,2} and {1,3} lost their higher end's entry.
		"dropped reverse entry": fromRows([]int32{1, 2}, []int32{0, 3}, nil, nil),
		// Only the higher ends list {0,1} and {2,3}.
		"hi-lo-only edge": fromRows(nil, []int32{0}, nil, []int32{2}),
		// Symmetric, but node 0 lists its neighbors out of order.
		"unsorted row": fromRows([]int32{2, 1}, []int32{0}, []int32{0}),
		// Nodes 2 and 6 lack their entries for 1 and 5, and the entries
		// that follow their rows (3's 1 and 7's 5) would stand in for them.
		"entry past a row's end": fromRows([]int32{2}, []int32{2, 3}, []int32{0}, []int32{1},
			[]int32{6}, []int32{6, 7}, []int32{4}, []int32{5}),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted graph", name)
		}
	}
}
