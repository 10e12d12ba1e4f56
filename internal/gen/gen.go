// Package gen produces the benchmark graphs used throughout this repository.
//
// The paper evaluated on unstructured 2-D computational meshes of 78–309
// nodes that were never published. We substitute deterministic Delaunay
// triangulations of random points at the same node counts,
// plus structured grids and random geometric graphs for unit tests and
// ablations. All generators take an explicit seed and are reproducible.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// Grid returns the rows x cols 4-neighbor grid mesh with unit weights and
// unit-square-scaled coordinates. The 8x8 grid reproduces the paper's
// Figure 1 substrate.
func Grid(rows, cols int) *graph.Graph {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gen: invalid grid %dx%d", rows, cols))
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := id(r, c)
			b.SetCoord(v, graph.Point{X: float64(c), Y: float64(r)})
			if c+1 < cols {
				b.AddEdge(v, id(r, c+1), 1)
			}
			if r+1 < rows {
				b.AddEdge(v, id(r+1, c), 1)
			}
		}
	}
	return b.Build()
}

// RandomGeometric returns a random geometric graph: n uniform points in the
// unit square, nodes within distance radius connected. Isolated components
// are stitched to the nearest node of the giant component so the result is
// always connected (partitioners assume connectivity).
//
// Neighbor search is grid-bucketed (cells no smaller than radius, so the
// 3x3 cell window around a point covers its whole reach): expected O(n +
// edges) instead of the O(n²) pair scan, which is what makes 100k+-node
// suites generable in seconds. The edge set is decided by pure distance
// predicates, so the result is bit-identical to the pair scan's.
func RandomGeometric(rng *rand.Rand, n int, radius float64) *graph.Graph {
	pts := randomWellSpacedPoints(rng, n)
	return connect(geometricGraph(pts, radius), pts)
}

// geometricGraph joins the points within radius of each other, unit
// weights, with the points as coordinates.
func geometricGraph(pts []geometry.Point, radius float64) *graph.Graph {
	n := len(pts)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetCoord(i, graph.Point{X: pts[i].X, Y: pts[i].Y})
	}
	if radius > 0 && n > 1 {
		r2 := radius * radius
		grid := newBucketGrid(pts, radius)
		for i := 0; i < n; i++ {
			grid.forNearby(pts[i], func(j int) {
				if j < i && pts[i].Dist2(pts[j]) <= r2 {
					b.AddEdge(j, i, 1)
				}
			})
		}
	}
	return b.Build()
}

// gridGeom is the square-cell geometry shared by the point grids below:
// the unit square cut into nx×nx cells whose side is at least the asked-for
// separation, so any point within that separation of p lies in the 3x3 cell
// window around p's cell.
type gridGeom struct {
	nx int
}

// newGridGeom sizes a grid with cells no smaller than sep. The cell count
// is also capped near 4n so degenerate separations cannot blow up memory;
// capping only makes cells *larger*, which keeps the 3x3 window sufficient.
func newGridGeom(sep float64, n int) gridGeom {
	nx := 1
	if sep > 0 && sep < 1 {
		nx = int(1 / sep) // floor: cell = 1/nx >= sep
	}
	if most := int(2*math.Sqrt(float64(n))) + 1; nx > most {
		nx = most
	}
	if nx < 1 {
		nx = 1
	}
	return gridGeom{nx: nx}
}

func (g gridGeom) cellOf(p geometry.Point) int {
	return g.cellAt(p.X)*g.nx + g.cellAt(p.Y)
}

func (g gridGeom) cellAt(x float64) int {
	c := int(x * float64(g.nx))
	if c < 0 {
		c = 0
	}
	if c >= g.nx {
		c = g.nx - 1
	}
	return c
}

// forWindow calls fn with every in-bounds cell index of the 3x3 window
// around p.
func (g gridGeom) forWindow(p geometry.Point, fn func(cell int)) {
	cx, cy := g.cellAt(p.X), g.cellAt(p.Y)
	for dx := -1; dx <= 1; dx++ {
		x := cx + dx
		if x < 0 || x >= g.nx {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= g.nx {
				continue
			}
			fn(x*g.nx + y)
		}
	}
}

// bucketGrid indexes fixed points CSR-style (one flat item array plus
// per-cell offsets) for radius and nearest-neighbor queries.
type bucketGrid struct {
	gridGeom
	start []int32
	items []int32
}

func newBucketGrid(pts []geometry.Point, reach float64) *bucketGrid {
	g := &bucketGrid{gridGeom: newGridGeom(reach, len(pts))}
	nx := g.nx
	g.start = make([]int32, nx*nx+1)
	for _, p := range pts {
		g.start[g.cellOf(p)+1]++
	}
	for c := 0; c < nx*nx; c++ {
		g.start[c+1] += g.start[c]
	}
	g.items = make([]int32, len(pts))
	cursor := append([]int32(nil), g.start[:nx*nx]...)
	for i, p := range pts {
		c := g.cellOf(p)
		g.items[cursor[c]] = int32(i)
		cursor[c]++
	}
	return g
}

// nearest returns the accepted point minimizing (distance² to p, index) —
// the same argmin a full scan in index order with strict improvement would
// select — by examining cells in expanding Chebyshev rings and stopping
// once no unvisited ring can beat the best found. Returns -1 if no point is
// accepted.
func (g *bucketGrid) nearest(p geometry.Point, pts []geometry.Point, accept func(j int) bool) (int, float64) {
	cx, cy := g.cellAt(p.X), g.cellAt(p.Y)
	cell := 1 / float64(g.nx)
	best, bestD := -1, math.Inf(1)
	scan := func(x, y int) {
		if x < 0 || x >= g.nx || y < 0 || y >= g.nx {
			return
		}
		c := x*g.nx + y
		for _, j32 := range g.items[g.start[c]:g.start[c+1]] {
			j := int(j32)
			if !accept(j) {
				continue
			}
			if d := p.Dist2(pts[j]); d < bestD || (d == bestD && j < best) {
				best, bestD = j, d
			}
		}
	}
	for r := 0; r <= 2*g.nx; r++ {
		if best >= 0 {
			// A cell in ring r is at least (r-1) cells away from p.
			if reach := float64(r-1) * cell; reach > 0 && reach*reach > bestD {
				break
			}
		}
		if r == 0 {
			scan(cx, cy)
			continue
		}
		for x := cx - r; x <= cx+r; x++ {
			if x == cx-r || x == cx+r {
				for y := cy - r; y <= cy+r; y++ {
					scan(x, y)
				}
			} else {
				scan(x, cy-r)
				scan(x, cy+r)
			}
		}
	}
	return best, bestD
}

// forNearby calls fn with the index of every point in the 3x3 cell window
// around p — a superset of the points within the grid's reach of p.
func (g *bucketGrid) forNearby(p geometry.Point, fn func(j int)) {
	g.forWindow(p, func(c int) {
		for _, j := range g.items[g.start[c]:g.start[c+1]] {
			fn(int(j))
		}
	})
}

// SkewWeights returns g with node weights drawn from a Zipf distribution on
// [1, maxWeight] — a few heavy nodes among many unit ones, the shape of
// adaptive-refinement and multi-physics workloads. The result shares g's
// structure, edge weights, and coordinates instead of copying them, so it
// costs O(n); weights are integral so the result serializes to METIS.
// Deterministic for a fixed seed.
func SkewWeights(g *graph.Graph, seed int64, maxWeight int) *graph.Graph {
	if maxWeight < 1 {
		panic(fmt.Sprintf("gen: SkewWeights with maxWeight %d", maxWeight))
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(maxWeight-1))
	w := make([]float64, g.NumNodes())
	for v := range w {
		w[v] = float64(1 + zipf.Uint64())
	}
	return g.WithNodeWeights(w)
}

// Mesh returns a Delaunay triangulation of n well-spaced random points in the
// unit square: the synthetic stand-in for the paper's unstructured meshes.
// The same (n, seed) always produces the same graph.
func Mesh(n int, seed int64) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: mesh needs >= 3 nodes, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := randomWellSpacedPoints(rng, n)
	tr, err := geometry.Delaunay(pts)
	if err != nil {
		// Well-spaced random points cannot be collinear or duplicated.
		panic(fmt.Sprintf("gen: Delaunay on generated points failed: %v", err))
	}
	b := graph.NewBuilder(n)
	for i, p := range pts {
		b.SetCoord(i, graph.Point{X: p.X, Y: p.Y})
	}
	for _, e := range tr.Edges() {
		b.AddEdge(e[0], e[1], 1)
	}
	return b.Build()
}

// randomWellSpacedPoints draws n points uniformly in the unit square with a
// minimum pairwise separation (dart throwing), which keeps triangulations
// well-shaped like real FEM meshes.
//
// The rejection test is grid-bucketed: a candidate only conflicts with
// points in the 3x3 cell window around it (cells are at least minSep wide,
// and the separation only ever *relaxes*, so the window stays sufficient).
// The accept/reject decision is the same pure distance predicate as the old
// all-pairs scan, so the point sequence — and everything generated from it —
// is bit-identical; generation just drops from O(n²) to expected O(n).
func randomWellSpacedPoints(rng *rand.Rand, n int) []geometry.Point {
	minSep := 0.5 / math.Sqrt(float64(n)) // ~half the mean spacing
	min2 := minSep * minSep
	pts := make([]geometry.Point, 0, n)
	grid := newInsertGrid(minSep, n)
	for attempts := 0; len(pts) < n; attempts++ {
		if attempts > 400*n {
			// Relax the separation rather than loop forever; this triggers
			// only for adversarial n.
			min2 *= 0.25
			attempts = 0
		}
		p := geometry.Point{X: rng.Float64(), Y: rng.Float64()}
		ok := true
		grid.forNearby(p, func(j int) {
			if ok && p.Dist2(pts[j]) < min2 {
				ok = false
			}
		})
		if ok {
			grid.insert(p, len(pts))
			pts = append(pts, p)
		}
	}
	return pts
}

// insertGrid is the incremental sibling of bucketGrid for dart throwing:
// points arrive one at a time, so cells are append-only slices instead of
// CSR arrays.
type insertGrid struct {
	gridGeom
	bins [][]int32
}

func newInsertGrid(sep float64, n int) *insertGrid {
	g := &insertGrid{gridGeom: newGridGeom(sep, n)}
	g.bins = make([][]int32, g.nx*g.nx)
	return g
}

func (g *insertGrid) insert(p geometry.Point, idx int) {
	c := g.cellOf(p)
	g.bins[c] = append(g.bins[c], int32(idx))
}

func (g *insertGrid) forNearby(p geometry.Point, fn func(j int)) {
	g.forWindow(p, func(c int) {
		for _, j := range g.bins[c] {
			fn(int(j))
		}
	})
}

// connect stitches disconnected components together by adding an edge from
// the component of node 0 to its geometrically nearest node outside it,
// repeated until one component remains.
//
// Each join picks the argmin of (distance², inside node, outside node) —
// exactly the pair the original all-pairs scan selected — but finds it with
// a grid ring search per outside node and tracks connectivity in a
// union-find instead of rebuilding the graph per join, so stitching a
// 100k-node graph with hundreds of pockets costs milliseconds, not minutes.
// The joins are collected first and the graph is assembled once, from g's
// edges plus the joins.
func connect(g *graph.Graph, pts []geometry.Point) *graph.Graph {
	comp, count := g.Components()
	if count <= 1 {
		return g
	}
	parent := make([]int, count)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(c int) int {
		if parent[c] != c {
			parent[c] = find(parent[c])
		}
		return parent[c]
	}
	n := len(pts)
	grid := newBucketGrid(pts, 1/(2*math.Sqrt(float64(n))+1))
	var links [][2]int // each join: {inside node, outside node}
	for joins := count - 1; joins > 0; joins-- {
		root := find(comp[0])
		bestV, bestU, bestD := -1, -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if find(comp[u]) == root {
				continue
			}
			v, d := grid.nearest(pts[u], pts, func(j int) bool { return find(comp[j]) == root })
			if v < 0 {
				continue
			}
			if d < bestD || (d == bestD && (v < bestV || (v == bestV && u < bestU))) {
				bestV, bestU, bestD = v, u, d
			}
		}
		if bestU < 0 {
			break
		}
		links = append(links, [2]int{bestV, bestU})
		parent[find(comp[bestU])] = root
	}

	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, g.NodeWeight(v))
		b.SetCoord(v, g.Coord(v))
	}
	g.Edges(func(u, v int, w float64) bool { b.AddEdge(u, v, w); return true })
	// Each join links two components, so it repeats no edge of g or of an
	// earlier join.
	for _, j := range links {
		b.AddEdge(j[0], j[1], 1)
	}
	return b.Build()
}
