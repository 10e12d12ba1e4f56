package graph

import (
	"cmp"
	"slices"
)

// RefBuild is Builder.Build as it was before Build went through FromEdges:
// its own counting sort, over the Builder's edge list. The oracle tests hold
// Build and FromEdges to it.
func RefBuild(b *Builder) *Graph {
	n := len(b.nodeWeight)
	deg := make([]int32, n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[n])
	ew := make([]float64, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i, w := range b.ws {
		u, v := b.us[i], b.vs[i]
		adj[cursor[u]], ew[cursor[u]] = v, w
		cursor[u]++
		adj[cursor[v]], ew[cursor[v]] = u, w
		cursor[v]++
	}
	// Sort each adjacency list (weights move with their neighbors).
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		refSortRow(adj[lo:hi], ew[lo:hi])
	}
	g := &Graph{
		offsets:    offsets,
		adj:        adj,
		edgeWeight: ew,
		nodeWeight: append([]float64(nil), b.nodeWeight...),
		totalNodeW: sumWeights(b.nodeWeight),
		numEdges:   len(b.us),
	}
	if b.coords != nil {
		g.coords = append([]Point(nil), b.coords...)
	}
	return g
}

// Raw exposes g's arrays to the oracle tests.
func Raw(g *Graph) (offsets, adj []int32, edgeWeight, nodeWeight []float64, coords []Point) {
	return g.offsets, g.adj, g.edgeWeight, g.nodeWeight, g.coords
}

// refSortRow is the row sort the oracle tests hold RowSorter to: the
// standard library's stable sort of (id, weight) pairs by id. On a row of
// distinct ids every correct sort gives its result.
func refSortRow(idx []int32, wts []float64) {
	type entry struct {
		u int32
		w float64
	}
	es := make([]entry, len(idx))
	for i := range idx {
		es[i] = entry{idx[i], wts[i]}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.u, b.u) })
	for i, e := range es {
		idx[i], wts[i] = e.u, e.w
	}
}
