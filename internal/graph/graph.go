// Package graph provides the weighted undirected graph substrate used by
// every partitioner in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: a single adjacency
// slice plus per-node offsets. This is the layout used by serious
// partitioning codes (Chaco, METIS) because partitioners spend almost all of
// their time streaming over adjacency lists; CSR keeps those scans contiguous
// and allocation-free.
//
// A Graph is immutable after construction. Every edge list is assembled
// into CSR by FromEdges, a counting sort whose output is valid by
// construction, under one rule: each edge is given once. Builder records a
// generator's node weights, coordinates and edges and hands them to
// FromEdges, as do the edge-list-shaped readers in internal/gio. FromCSR
// takes rows that are already in CSR form (the METIS reader's) and validates
// them, and WithNodeWeights gives a graph new node weights and shares the
// rest.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Graph is an immutable weighted undirected graph in CSR form.
//
// Nodes are identified by dense indices 0..NumNodes()-1. Every undirected
// edge {u,v} is stored twice, once in u's adjacency list and once in v's.
// The zero value is an empty graph.
type Graph struct {
	offsets    []int32   // len = n+1; adjacency of node v is adj[offsets[v]:offsets[v+1]]
	adj        []int32   // neighbor node indices, sorted within each node
	edgeWeight []float64 // parallel to adj
	nodeWeight []float64 // len = n
	totalNodeW float64   // Σ nodeWeight, summed in node order
	numEdges   int       // undirected edge count (each {u,v} counted once)
	coords     []Point   // optional geometric embedding; nil or len = n
}

// Point is a 2-D coordinate attached to a node. Geometric partitioners (IBP,
// RCB) require an embedding; purely combinatorial ones ignore it.
type Point struct {
	X, Y float64
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Degree returns the number of neighbors of node v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor indices of node v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeights returns the edge weights parallel to Neighbors(v). The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) EdgeWeights(v int) []float64 {
	return g.edgeWeight[g.offsets[v]:g.offsets[v+1]]
}

// NodeWeight returns the computation weight of node v.
func (g *Graph) NodeWeight(v int) float64 { return g.nodeWeight[v] }

// TotalNodeWeight returns the sum of all node weights, in O(1): every
// constructor sums them once, in node order.
func (g *Graph) TotalNodeWeight() float64 { return g.totalNodeW }

// sumWeights returns Σ ws in index order, the order TotalNodeWeight's value
// is summed in.
func sumWeights(ws []float64) float64 {
	var s float64
	for _, w := range ws {
		s += w
	}
	return s
}

// HasCoords reports whether every node carries a geometric embedding.
func (g *Graph) HasCoords() bool { return g.coords != nil }

// Coord returns the embedding of node v. It panics if the graph has no
// embedding; call HasCoords first.
func (g *Graph) Coord(v int) Point {
	if g.coords == nil {
		panic("graph: Coord called on graph without coordinates")
	}
	return g.coords[v]
}

// HasEdge reports whether nodes u and v are adjacent, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// EdgeWeightBetween returns the weight of edge {u,v}, or 0 if absent.
func (g *Graph) EdgeWeightBetween(u, v int) float64 {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	if i < len(nbrs) && nbrs[i] == int32(v) {
		return g.EdgeWeights(u)[i]
	}
	return 0
}

// Edges calls fn once per undirected edge {u,v} with u < v, in increasing
// (u, v) order. Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v int, w float64) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(u)
		ws := g.EdgeWeights(u)
		for i, v := range nbrs {
			if int(v) > u {
				if !fn(u, int(v), ws[i]) {
					return
				}
			}
		}
	}
}

// Validate checks structural invariants: offsets monotone, no self loops,
// neighbors in range, strictly sorted adjacency, every edge stored from
// both endpoints with equal weight, and an edge count matching the
// adjacency. It returns a descriptive error for the first violation found.
// Graphs emitted by FromEdges (and so by Builder) always validate; this
// exists to check hand-built or deserialized inputs.
//
// Symmetry is checked in one pass over the rows in increasing order, in
// O(n+m) time whatever the degrees, with one int32 cursor per node as its
// only scratch: one probe per undirected edge, where a binary search per
// entry would cost Σ deg·log deg. cursor[u] walks the entries of row u that
// lie below u, which a sorted row holds as a prefix: an entry u > v in row
// v must find v, with the same weight, under cursor[u], and advances it.
// When row u is reached, the entries its cursor passed are checked, and the
// rest of the row must lie above u. A probe reads no row end: a cursor runs
// past the end of row u only by matching an entry of a later row, which
// means row u lacks that edge, and that is caught when row u is reached.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.nodeWeight) != n {
		return fmt.Errorf("graph: %d node weights for %d nodes", len(g.nodeWeight), n)
	}
	if g.coords != nil && len(g.coords) != n {
		return fmt.Errorf("graph: %d coords for %d nodes", len(g.coords), n)
	}
	if len(g.adj) != len(g.edgeWeight) {
		return fmt.Errorf("graph: adjacency/weight length mismatch %d != %d", len(g.adj), len(g.edgeWeight))
	}
	// Every row must lie inside adj before any cursor reads ahead into it.
	if g.offsets[0] < 0 || int(g.offsets[n]) > len(g.adj) {
		return fmt.Errorf("graph: offsets span [%d,%d], adjacency has %d entries", g.offsets[0], g.offsets[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if cursor[v] > hi {
			// A row before v matched an entry past the end of row v.
			return fmt.Errorf("graph: edge %d->%d has no reverse", g.adj[hi], v)
		}
		// Row v's entries up to cursor[v] were matched by the rows before v
		// that list v, in increasing order: each is a neighbor below v, in
		// range, sorted, with its reverse and an equal weight. The rest of
		// the row must lie above v.
		for i := cursor[v]; i < hi; i++ {
			u := g.adj[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if i > lo && g.adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at node %d", v)
			}
			if int(u) < v {
				// Row u came and went without listing v.
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, u)
			}
			c := cursor[u]
			if int(c) < len(g.adj) && g.adj[c] == int32(v) && g.edgeWeight[c] == g.edgeWeight[i] {
				cursor[u] = c + 1
				continue
			}
			switch {
			case c >= g.offsets[u+1] || g.adj[c] > int32(v):
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, u)
			case g.adj[c] < int32(v):
				// Row adj[c] < v came and went without listing u.
				return fmt.Errorf("graph: edge %d->%d has no reverse", u, g.adj[c])
			default:
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}", v, u)
			}
		}
	}
	if len(g.adj)%2 != 0 {
		return fmt.Errorf("graph: odd directed-edge count %d", len(g.adj))
	}
	if g.numEdges != len(g.adj)/2 {
		return fmt.Errorf("graph: edge count %d does not match adjacency %d", g.numEdges, len(g.adj)/2)
	}
	return nil
}

// Builder records a graph's node weights, coordinates and edge list, and
// Build assembles them with FromEdges. Each edge is given once: Build panics
// on an edge given twice, in either orientation, as AddEdge does on a self
// loop. Create one with NewBuilder.
type Builder struct {
	nodeWeight []float64
	coords     []Point
	us, vs     []int32
	ws         []float64
}

// NewBuilder returns a Builder for n nodes with unit weights and no
// coordinates.
func NewBuilder(n int) *Builder {
	b := &Builder{nodeWeight: make([]float64, n)}
	for i := range b.nodeWeight {
		b.nodeWeight[i] = 1
	}
	return b
}

// SetNodeWeight sets the weight of node v.
func (b *Builder) SetNodeWeight(v int, w float64) { b.nodeWeight[v] = w }

// SetCoord attaches coordinate p to node v, enabling the geometric embedding.
// Once any coordinate is set, all nodes carry one (zero-valued by default).
func (b *Builder) SetCoord(v int, p Point) {
	if b.coords == nil {
		b.coords = make([]Point, len(b.nodeWeight))
	}
	b.coords[v] = p
}

// AddEdge records undirected edge {u,v} with weight w. Self loops and
// out-of-range endpoints panic: they are programming errors in generators,
// not recoverable input errors.
func (b *Builder) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at node %d", u))
	}
	if u < 0 || v < 0 || u >= len(b.nodeWeight) || v >= len(b.nodeWeight) {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range (n=%d)", u, v, len(b.nodeWeight)))
	}
	b.us, b.vs, b.ws = append(b.us, int32(u)), append(b.vs, int32(v)), append(b.ws, w)
}

// Build emits an immutable CSR snapshot of the recorded graph. It panics if
// an edge was given twice.
func (b *Builder) Build() *Graph {
	// Copies, so later Builder edits cannot reach the graph; a nil coords
	// stays nil.
	g, err := FromEdges(b.us, b.vs, b.ws, append([]float64(nil), b.nodeWeight...), append([]Point(nil), b.coords...))
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges assembles a Graph from an edge list: edge i joins us[i] and
// vs[i], in either orientation, with weight ws[i]. The node count n is
// len(nodeWeight), and coords is nil or has one entry per node; FromEdges
// takes ownership of both, and only reads us, vs and ws.
//
// It counting-sorts every edge into both endpoints' rows and sorts each row
// with a RowSorter, so the result is symmetric and strictly sorted by
// construction and meets everything Validate checks without a second pass.
// Each edge is given once: self loops, endpoints outside [0, n), and an
// edge given twice (in either orientation) are errors. This is the one
// assembly into CSR for every edge-list-shaped input: Builder.Build and
// gio's edge-list and text readers.
func FromEdges(us, vs []int32, ws, nodeWeight []float64, coords []Point) (*Graph, error) {
	n, m := len(nodeWeight), len(us)
	if len(vs) != m || len(ws) != m {
		return nil, fmt.Errorf("graph: FromEdges got %d/%d/%d endpoints and weights", len(us), len(vs), len(ws))
	}
	if coords != nil && len(coords) != n {
		return nil, fmt.Errorf("graph: %d coords for %d nodes", len(coords), n)
	}
	if 2*m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges overflow the int32 adjacency offsets", m)
	}
	offsets := make([]int32, n+1)
	for i := range us {
		u, v := us[i], vs[i]
		if u == v {
			return nil, fmt.Errorf("graph: self loop at node %d", u)
		}
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range (n=%d)", u, v, n)
		}
		offsets[u+1]++
		offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, 2*m)
	ew := make([]float64, 2*m)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i := range us {
		u, v, w := us[i], vs[i], ws[i]
		adj[cursor[u]], ew[cursor[u]] = v, w
		cursor[u]++
		adj[cursor[v]], ew[cursor[v]] = u, w
		cursor[v]++
	}
	var rows RowSorter
	for v := 0; v < n; v++ {
		row := adj[offsets[v]:offsets[v+1]]
		rows.Sort(row, ew[offsets[v]:offsets[v+1]])
		for i := 1; i < len(row); i++ {
			if row[i-1] == row[i] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, row[i])
			}
		}
	}
	return &Graph{
		offsets:    offsets,
		adj:        adj,
		edgeWeight: ew,
		nodeWeight: nodeWeight,
		totalNodeW: sumWeights(nodeWeight),
		numEdges:   m,
		coords:     coords,
	}, nil
}

// FromCSR assembles a Graph directly from CSR arrays, taking ownership of
// every slice passed in. offsets must have length n+1, adj and edgeWeight
// length offsets[n], and nodeWeight length n; coords may be nil or length n.
// Adjacency lists must already be strictly sorted and symmetric (every edge
// stored from both endpoints with equal weight) — FromCSR validates the
// result and rejects anything malformed rather than repairing it.
//
// This is the entry point for the METIS reader (internal/gio), whose input
// lists every row in full; its validation pass is O(n+m) and allocates one
// int32 per node beyond the Graph header. Inputs that list each edge once
// go through FromEdges instead.
func FromCSR(offsets, adj []int32, edgeWeight, nodeWeight []float64, coords []Point) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: FromCSR needs offsets of length n+1, got 0")
	}
	n := len(offsets) - 1
	if int(offsets[0]) != 0 || int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: FromCSR offsets span [%d,%d], adjacency has %d entries",
			offsets[0], offsets[n], len(adj))
	}
	g := &Graph{
		offsets:    offsets,
		adj:        adj,
		edgeWeight: edgeWeight,
		nodeWeight: nodeWeight,
		totalNodeW: sumWeights(nodeWeight),
		numEdges:   len(adj) / 2,
		coords:     coords,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WithNodeWeights returns a graph with g's structure, edge weights and
// coordinates and with node weights w, which it takes ownership of. The
// result shares g's CSR and coordinate arrays, which is safe because graphs
// are immutable, so it costs O(n). It panics if len(w) is not NumNodes().
func (g *Graph) WithNodeWeights(w []float64) *Graph {
	if len(w) != g.NumNodes() {
		panic(fmt.Sprintf("graph: %d node weights for %d nodes", len(w), g.NumNodes()))
	}
	h := *g
	h.nodeWeight, h.totalNodeW = w, sumWeights(w)
	return &h
}

// shortRow is the longest adjacency row RowSorter insertion-sorts.
const shortRow = 24

// RowSorter sorts adjacency rows: neighbor ids ascending, each weight moving
// with its id. FromEdges and Contract sort every row they emit with one, and
// the METIS reader canonicalizes each CSR row with one before handing the
// arrays to FromCSR. The zero value is ready to use. A RowSorter owns its
// scratch, a bit and a float64 per id of the widest id range a dense row
// has spanned, grown geometrically (so under 17 bytes per node of the
// graph), and is not safe for concurrent use: Contract keeps one per
// worker.
//
// A row of d entries takes one of three paths, and every path gives the one
// ascending order of a row of distinct ids:
//
//   - Rows of up to shortRow entries, most rows of a sparse graph, are
//     insertion-sorted in place.
//   - A longer row whose ids span a range that is narrow next to d is
//     placed in one linear pass: each id sets its bit in a bitset over the
//     range and parks its weight in a slot, and a walk over the bitset
//     writes the row back in order. The row is dense when the bitset has at
//     most d·⌈log2 d⌉ words, about the compares a comparison sort makes, so
//     the walk stays O(d log d); at that limit it still ran 3-4x faster than
//     sort.Sort for d from 32 to 4096 (BenchmarkRowSorter). The long hub
//     rows of power-law coarse levels, over a few thousand coarse ids, take
//     this path.
//   - Sparse long rows, and any row that repeats an id, go through
//     sort.Sort, which costs O(d log d). A repeat is found while placing; the
//     row is then sorted as a whole, so FromEdges and FromCSR see the same
//     sorted row, duplicates adjacent, that they reject.
type RowSorter struct {
	bitset []uint64  // one bit per id of a dense row's range; all zero between rows
	val    []float64 // val[u-lo]: the weight of id u of the dense row being placed
	cmp    adjSorter
}

// Sort sorts idx ascending, moving wts[i] with idx[i]; wts must be at least
// as long as idx.
func (s *RowSorter) Sort(idx []int32, wts []float64) {
	d := len(idx)
	wts = wts[:d]
	if d <= shortRow {
		for i := 1; i < d; i++ {
			u, w := idx[i], wts[i]
			j := i
			for ; j > 0 && idx[j-1] > u; j-- {
				idx[j], wts[j] = idx[j-1], wts[j-1]
			}
			idx[j], wts[j] = u, w
		}
		return
	}
	lo, hi := idx[0], idx[0]
	for _, u := range idx[1:] {
		lo, hi = min(lo, u), max(hi, u)
	}
	span := int(hi) - int(lo) + 1
	if denseRow(d, span) && s.place(idx, wts, lo, span) {
		return
	}
	s.cmp = adjSorter{idx, wts}
	sort.Sort(&s.cmp)
	s.cmp = adjSorter{}
}

// denseRow reports whether a row of d > shortRow ids spanning span
// consecutive ids is dense: its bitset has at most d·⌈log2 d⌉ words.
func denseRow(d, span int) bool { return (span+63)>>6 <= d*bits.Len(uint(d-1)) }

// place is the dense path: it sorts the row whose ids lie in [lo, lo+span)
// through the bitset and reports true, or, on finding an id twice, leaves
// the row as it was and reports false.
func (s *RowSorter) place(idx []int32, wts []float64, lo int32, span int) bool {
	// Growing geometrically, rows of ever wider ranges cost a logarithmic
	// number of allocations in all, not one each.
	words := (span + 63) >> 6
	if cap(s.bitset) < words {
		s.bitset = make([]uint64, max(words, 2*cap(s.bitset)))
	}
	if cap(s.val) < span {
		s.val = make([]float64, max(span, 2*cap(s.val)))
	}
	set, val := s.bitset[:words], s.val[:span]
	for i, u := range idx {
		k := uint(int(u) - int(lo))
		bit := uint64(1) << (k & 63)
		if set[k>>6]&bit != 0 {
			clear(set)
			return false
		}
		set[k>>6] |= bit
		val[k] = wts[i]
	}
	i := 0
	for w, word := range set {
		if word == 0 {
			continue
		}
		set[w] = 0
		for base := w << 6; word != 0; word &= word - 1 {
			k := base + bits.TrailingZeros64(word)
			idx[i], wts[i] = lo+int32(k), val[k]
			i++
		}
	}
	return true
}

// adjSorter is RowSorter's comparison path.
type adjSorter struct {
	idx []int32
	wts []float64
}

func (s *adjSorter) Len() int           { return len(s.idx) }
func (s *adjSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *adjSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.wts[i], s.wts[j] = s.wts[j], s.wts[i]
}
