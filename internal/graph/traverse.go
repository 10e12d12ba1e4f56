package graph

// BFS performs a breadth-first search from root and returns the visit levels:
// level[v] is the BFS distance from root, or -1 if v is unreachable.
func (g *Graph) BFS(root int) []int {
	n := g.NumNodes()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(root))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// Components labels the connected components of g. It returns the component
// id of each node (ids are dense, assigned in order of discovery) and the
// number of components.
func (g *Graph) Components() (comp []int, count int) {
	n := g.NumNodes()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] == -1 {
					comp[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g is connected. The empty graph is connected.
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// PseudoPeripheral returns a node of (approximately) maximal eccentricity
// within the component containing start, using the standard
// Gibbs–Poole–Stockmeyer iteration: repeatedly BFS and jump to a deepest
// node of minimal degree until the eccentricity stops growing. Recursive
// graph bisection uses this to seed its level structure.
func (g *Graph) PseudoPeripheral(start int) int {
	cur := start
	ecc := -1
	for {
		level := g.BFS(cur)
		far, farLevel := cur, 0
		for v, l := range level {
			if l > farLevel || (l == farLevel && l > 0 && g.Degree(v) < g.Degree(far)) {
				far, farLevel = v, l
			}
		}
		if farLevel <= ecc {
			return cur
		}
		cur, ecc = far, farLevel
	}
}

// InducedSubgraph extracts the subgraph induced by the given nodes. It
// returns the new graph and the mapping from new indices to original node
// ids (the inverse of the implicit relabeling). Node weights, edge weights,
// and coordinates are preserved.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	toNew := make([]int32, g.NumNodes()) // -1: not in the subgraph
	for v := range toNew {
		toNew[v] = -1
	}
	orig := make([]int, len(nodes))
	for i, v := range nodes {
		toNew[v] = int32(i)
		orig[i] = v
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		b.SetNodeWeight(i, g.NodeWeight(v))
		if g.HasCoords() {
			b.SetCoord(i, g.Coord(v))
		}
	}
	for i, v := range nodes {
		ws := g.EdgeWeights(v)
		for k, u := range g.Neighbors(v) {
			if j := int(toNew[u]); j > i {
				b.AddEdge(i, j, ws[k])
			}
		}
	}
	return b.Build(), orig
}
