package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// SuiteSeed is the fixed seed for the benchmark mesh suite. Every reported
// experiment is generated from these graphs, so the seed is part of the
// experiment definition.
const SuiteSeed = 1994 // year of the paper

// PaperSizes lists the static-graph node counts appearing in the paper's
// Tables 1, 2, 4, and 5.
var PaperSizes = []int{78, 88, 98, 118, 139, 144, 167, 183, 213, 243, 249, 279, 309}

// PaperGraph returns the benchmark mesh with the given node count from the
// fixed-seed suite. It panics if n is not one of PaperSizes (catching typos
// in experiment definitions early).
func PaperGraph(n int) *graph.Graph {
	for _, s := range PaperSizes {
		if s == n {
			return Mesh(n, SuiteSeed+int64(n))
		}
	}
	panic(fmt.Sprintf("gen: %d is not a paper suite size %v", n, PaperSizes))
}

// Refine adds k new nodes inside a local region of mesh g, mimicking adaptive
// mesh refinement: a random existing node is chosen as the region center, new
// points are placed nearby, and the affected region is re-triangulated. This
// is the incremental workload of the paper's Tables 3 and 6 ("adding some
// number of nodes in a local area chosen randomly within the graph").
//
// It returns the grown graph. Nodes 0..g.NumNodes()-1 keep their identity and
// coordinates; new nodes take indices g.NumNodes()..g.NumNodes()+k-1.
func Refine(g *graph.Graph, k int, rng *rand.Rand) *graph.Graph {
	if !g.HasCoords() {
		panic("gen: Refine requires a geometric mesh")
	}
	n := g.NumNodes()
	center := g.Coord(rng.Intn(n))

	// Radius that encloses roughly k/2 existing nodes, so the refinement
	// roughly triples the local density — a genuinely local neighborhood.
	type distNode struct {
		d float64
		v int
	}
	dist := make([]distNode, n)
	for v := 0; v < n; v++ {
		p := g.Coord(v)
		dx, dy := p.X-center.X, p.Y-center.Y
		dist[v] = distNode{dx*dx + dy*dy, v}
	}
	sort.Slice(dist, func(i, j int) bool { return dist[i].d < dist[j].d })
	enclose := k / 2
	if enclose < 4 {
		enclose = 4
	}
	if enclose >= n {
		enclose = n - 1
	}
	radius := math.Sqrt(dist[enclose].d)
	if radius == 0 {
		radius = 0.05
	}

	// Place k new points uniformly in the disc, keeping a minimum separation
	// from all points so the re-triangulation stays well-shaped.
	pts := make([]geometry.Point, n, n+k)
	for v := 0; v < n; v++ {
		p := g.Coord(v)
		pts[v] = geometry.Point{X: p.X, Y: p.Y}
	}
	minSep := radius / (2 * math.Sqrt(float64(k)+1))
	min2 := minSep * minSep
	for len(pts) < n+k {
		for attempts := 0; ; attempts++ {
			if attempts > 200*k+1000 {
				min2 *= 0.25
				attempts = 0
			}
			ang := rng.Float64() * 2 * math.Pi
			r := radius * math.Sqrt(rng.Float64())
			p := geometry.Point{X: center.X + r*math.Cos(ang), Y: center.Y + r*math.Sin(ang)}
			ok := true
			for _, q := range pts {
				if p.Dist2(q) < min2 {
					ok = false
					break
				}
			}
			if ok {
				pts = append(pts, p)
				break
			}
		}
	}

	// Re-triangulate the whole point set, then keep the old graph's edges
	// outside the refined region and the new triangulation's edges for any
	// pair touching the region. This models local re-meshing: topology far
	// from the refinement is untouched.
	tr, err := geometry.Delaunay(pts)
	if err != nil {
		panic(fmt.Sprintf("gen: Refine triangulation failed: %v", err))
	}
	inRegion := func(p geometry.Point) bool {
		dx, dy := p.X-center.X, p.Y-center.Y
		return dx*dx+dy*dy <= radius*radius*1.21 // 10% margin
	}
	b := graph.NewBuilder(n + k)
	for v := 0; v < n; v++ {
		b.SetNodeWeight(v, g.NodeWeight(v))
		b.SetCoord(v, g.Coord(v))
	}
	for v := n; v < n+k; v++ {
		b.SetCoord(v, graph.Point{X: pts[v].X, Y: pts[v].Y})
	}
	edges := tr.Edges() // sorted, each with u < v
	triHas := func(u, v int) bool {
		i := sort.Search(len(edges), func(i int) bool {
			return edges[i][0] > u || (edges[i][0] == u && edges[i][1] >= v)
		})
		return i < len(edges) && edges[i] == [2]int{u, v}
	}
	// Old edges outside the region survive verbatim. An old edge with one
	// end in the region survives unless the triangulation has it too: then
	// the triangulation's copy, of weight 1, stands for it.
	g.Edges(func(u, v int, w float64) bool {
		inU, inV := inRegion(pts[u]), inRegion(pts[v])
		if (!inU && !inV) || (inU != inV && !triHas(u, v)) {
			b.AddEdge(u, v, w)
		}
		return true
	})
	// The triangulation supplies every edge touching the region.
	for _, e := range edges {
		if inRegion(pts[e[0]]) || inRegion(pts[e[1]]) {
			b.AddEdge(e[0], e[1], 1)
		}
	}
	return connect(b.Build(), pts)
}

// IncrementalCase describes one incremental-partitioning workload from the
// paper: a base mesh plus a number of nodes added by local refinement.
type IncrementalCase struct {
	Base  int // node count of the initial mesh
	Added int // nodes added by Refine
}

// PaperIncrementalCases lists the (base, added) combinations in Tables 3
// and 6.
var PaperIncrementalCases = []IncrementalCase{
	{78, 10}, {78, 20},
	{118, 21}, {118, 41},
	{183, 30}, {183, 60},
	{249, 30}, {249, 60},
}

// IncrementalPair deterministically generates the base mesh and its refined
// version for the given case.
func IncrementalPair(c IncrementalCase) (base, grown *graph.Graph) {
	base = Mesh(c.Base, SuiteSeed+int64(c.Base))
	rng := rand.New(rand.NewSource(SuiteSeed + int64(1000*c.Base+c.Added)))
	grown = Refine(base, c.Added, rng)
	return base, grown
}
