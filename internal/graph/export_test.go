package graph

// RefBuild is Builder.Build as it was before Build went through FromEdges:
// its own counting sort over the edge map. The oracle tests hold Build and
// FromEdges to it.
func RefBuild(b *Builder) *Graph {
	n := len(b.nodeWeight)
	deg := make([]int32, n)
	for k := range b.edges {
		deg[k.u]++
		deg[k.v]++
	}
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[n])
	ew := make([]float64, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for k, w := range b.edges {
		adj[cursor[k.u]], ew[cursor[k.u]] = k.v, w
		cursor[k.u]++
		adj[cursor[k.v]], ew[cursor[k.v]] = k.u, w
		cursor[k.v]++
	}
	// Sort each adjacency list (weights move with their neighbors).
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		SortAdjacency(adj[lo:hi], ew[lo:hi])
	}
	g := &Graph{
		offsets:    offsets,
		adj:        adj,
		edgeWeight: ew,
		nodeWeight: append([]float64(nil), b.nodeWeight...),
		totalNodeW: sumWeights(b.nodeWeight),
		numEdges:   len(b.edges),
	}
	if b.hasCoords {
		g.coords = append([]Point(nil), b.coords...)
		for len(g.coords) < n {
			g.coords = append(g.coords, Point{})
		}
	}
	return g
}

// Raw exposes g's arrays to the oracle tests.
func Raw(g *Graph) (offsets, adj []int32, edgeWeight, nodeWeight []float64, coords []Point) {
	return g.offsets, g.adj, g.edgeWeight, g.nodeWeight, g.coords
}
