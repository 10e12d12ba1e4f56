package kl

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// adjList is a raw symmetric adjacency: unlike graph.Graph it may carry
// self-loops and duplicate entries, which group must tolerate.
type adjList [][]int32

func (a adjList) NumNodes() int           { return len(a) }
func (a adjList) Neighbors(v int) []int32 { return a[v] }

// jonesPlassmann is the reference coloring group replaced: over the n-node
// graph whose adjacency adj enumerates (self-visits ignored), every uncolored
// node whose priority beats all of its uncolored neighbors takes, in rounds,
// the smallest color absent from its already-colored neighborhood. Each
// round decides from the previous round's colors only.
func jonesPlassmann(n int, adj func(i int, visit func(j int))) []int32 {
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	decided := make([]int32, n)
	for len(active) > 0 {
		for k, i := range active {
			wins := true
			adj(i, func(j int) {
				if j != i && color[j] < 0 && prio(j) > prio(i) {
					wins = false
				}
			})
			if !wins {
				decided[k] = -1
				continue
			}
			used := map[int32]bool{}
			adj(i, func(j int) {
				if color[j] >= 0 {
					used[color[j]] = true
				}
			})
			c := int32(0)
			for used[c] {
				c++
			}
			decided[k] = c
		}
		next := active[:0]
		for k, i := range active {
			if decided[k] >= 0 {
				color[i] = decided[k]
			} else {
				next = append(next, i)
			}
		}
		active = next
	}
	return color
}

// oracleGroup is group built on jonesPlassmann over the induced subgraph of
// nodes: the members/off layout group must reproduce exactly.
func oracleGroup(g adjacency, nodes []int) (members, off []int32) {
	index := map[int]int{}
	for i, v := range nodes {
		index[v] = i
	}
	color := jonesPlassmann(len(nodes), func(i int, visit func(j int)) {
		for _, u := range g.Neighbors(nodes[i]) {
			if j, ok := index[int(u)]; ok {
				visit(j)
			}
		}
	})
	nColors := int32(0)
	for _, c := range color {
		nColors = max(nColors, c+1)
	}
	off = make([]int32, nColors+1)
	for c := int32(0); c < nColors; c++ {
		for i, v := range nodes {
			if color[i] == c {
				members = append(members, int32(v))
			}
		}
		off[c+1] = int32(len(members))
	}
	return members, off
}

// randomAdj builds a symmetric n-node adjacency with about avgDeg entries per
// node, a few hubs adjacent to a large share of the graph, and self-loops and
// duplicate edges sprinkled in.
func randomAdj(rng *rand.Rand, n, avgDeg int) adjList {
	a := make(adjList, n)
	edge := func(u, v int) {
		a[u] = append(a[u], int32(v))
		if u != v {
			a[v] = append(a[v], int32(u))
		}
	}
	for e := 0; e < n*avgDeg/2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		edge(u, v)
		if rng.Intn(10) == 0 {
			edge(u, v) // duplicate
		}
	}
	for h := 0; h < 1+rng.Intn(3); h++ {
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				edge(hub, v) // includes the occasional self-loop
			}
		}
	}
	for _, row := range a {
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	}
	return a
}

// randomSubset returns an ascending, duplicate-free subset of 0..n-1 of the
// given size.
func randomSubset(rng *rand.Rand, n, size int) []int {
	s := rng.Perm(n)[:size]
	slices.Sort(s)
	return s
}

// allNodes returns 0..n-1.
func allNodes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// withClique returns a copy of a with the nodes of clique pairwise adjacent,
// which forces any proper coloring of them past 64 colors when the clique
// has more than 64 nodes.
func withClique(a adjList, clique []int) adjList {
	b := make(adjList, len(a))
	for v := range a {
		b[v] = slices.Clone(a[v])
	}
	for x, u := range clique {
		for _, v := range clique[x+1:] {
			b[u] = append(b[u], int32(v))
			b[v] = append(b[v], int32(u))
		}
	}
	return b
}

// requireSameGrouping checks cs.group against oracleGroup and returns the
// number of colors used.
func requireSameGrouping(t *testing.T, label string, cs *classes, g adjacency, nodes []int) int {
	t.Helper()
	members, off := cs.group(g, nodes)
	wantMembers, wantOff := oracleGroup(g, nodes)
	if !slices.Equal(off, wantOff) {
		t.Fatalf("%s: off %v, Jones–Plassmann %v", label, off, wantOff)
	}
	if len(members) != len(nodes) || !slices.Equal(members, wantMembers) {
		t.Fatalf("%s: members %v, Jones–Plassmann %v", label, members, wantMembers)
	}
	return len(off) - 1
}

// First-fit in descending priority order is the Jones–Plassmann coloring:
// group's classes match the round-based reference exactly on random graphs
// with hubs, self-loops and duplicate edges, over full node sets and strict
// subsets (whose outside neighbors must stay invisible), at the set sizes
// the sweeps hit (0, 1, a full 512-node tile), and on cliques that need more
// than 64 colors. One classes serves every call, as a pooled sweeper's does.
func TestGroupMatchesJonesPlassmann(t *testing.T) {
	var cs classes
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(700)
		a := randomAdj(rng, n, 2+rng.Intn(10))
		sizes := []int{0, 1, n, rng.Intn(n + 1)}
		if n > 512 {
			sizes = append(sizes, 512)
		}
		if trial%20 == 0 && n > 80 {
			clique := randomSubset(rng, n, 66+rng.Intn(min(n-66, 40)))
			a = withClique(a, clique)
			if c := requireSameGrouping(t, "clique", &cs, a, clique); c <= 64 {
				t.Fatalf("a %d-clique used only %d colors", len(clique), c)
			}
		}
		for _, size := range sizes {
			requireSameGrouping(t, "random", &cs, a, randomSubset(rng, n, size))
		}
	}
}

// group's grouping is a proper coloring of the induced subgraph: every node
// lands in exactly one class, classes are ascending, and no edge joins two
// members of one class.
func TestGroupIsProperColoring(t *testing.T) {
	var cs classes
	for _, n := range []int{1, 2, 17, 300, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomAdj(rng, n, 6)
		members, off := cs.group(a, allNodes(n))
		class := make([]int, n)
		for c := 0; c+1 < len(off); c++ {
			cl := members[off[c]:off[c+1]]
			if len(cl) == 0 || !slices.IsSorted(cl) {
				t.Fatalf("n=%d: class %d empty or unsorted: %v", n, c, cl)
			}
			for _, v := range cl {
				class[v] = c
			}
		}
		if len(members) != n {
			t.Fatalf("n=%d: %d members", n, len(members))
		}
		for v := 0; v < n; v++ {
			for _, u := range a[v] {
				if int(u) != v && class[u] == class[v] {
					t.Fatalf("n=%d: adjacent nodes %d and %d share class %d", n, v, u, class[v])
				}
			}
		}
	}
}

func TestGroupEmpty(t *testing.T) {
	var cs classes
	members, off := cs.group(gen.Grid(4, 4), nil)
	if len(members) != 0 || !slices.Equal(off, []int32{0}) {
		t.Errorf("empty set grouped as members %v, off %v", members, off)
	}
}

func TestGroupUsesFewColorsOnPath(t *testing.T) {
	// A path is 2-colorable; greedy first-fit may use a couple more, but a
	// blowup would signal a broken order.
	n := 1000
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	var cs classes
	if _, off := cs.group(b.Build(), allNodes(n)); len(off)-1 > 4 {
		t.Errorf("path graph used %d colors", len(off)-1)
	}
}

// The coloring's work counter: a group call scans each member's adjacency
// exactly once, Σ deg(v) entries, however skewed the degrees. Jones–Plassmann
// rounds rescanned every losing hub once per round; this is the check that
// fails if such a rescan comes back.
func TestGroupScansEachAdjacencyOnce(t *testing.T) {
	star := graph.NewBuilder(tileSize)
	for leaf := 1; leaf < tileSize; leaf++ {
		star.AddEdge(0, leaf, 1)
	}
	pl := gen.PowerLaw(10000, 4, gen.SuiteSeed+10000)
	p := partition.RandomBalanced(pl.NumNodes(), 8, rand.New(rand.NewSource(16)))
	boundary := partition.Tracked(pl, p, nil, partition.TotalCut, 1).AppendBoundary(nil)
	tiles := []struct {
		name  string
		g     *graph.Graph
		nodes []int
	}{
		{"star", star.Build(), allNodes(tileSize)},
		{"powerlaw-10k boundary tile", pl, boundary[:tileSize]},
	}
	var cs classes
	for _, tile := range tiles {
		deg := 0
		for _, v := range tile.nodes {
			deg += tile.g.Degree(v)
		}
		cs.group(tile.g, tile.nodes)
		if got := cs.scanned; got != deg {
			t.Errorf("%s: group scanned %d adjacency entries, want Σ deg = %d", tile.name, got, deg)
		}
	}
}
