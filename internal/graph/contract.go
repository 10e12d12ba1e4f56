package graph

import (
	"fmt"

	"repro/internal/par"
)

// Contract collapses g into a coarser graph with nCoarse nodes according to
// coarseOf, which maps every fine node to its coarse node in [0, nCoarse).
// Coarse node weights are the sums of their members' weights; parallel fine
// edges between two coarse nodes accumulate into a single coarse edge;
// edges internal to a coarse node vanish. When g carries coordinates, each
// coarse node sits at the node-weight-weighted centroid of its members.
//
// Contract allocates its working buffers fresh on every call. Hierarchy
// builders that contract level after level should hold a ContractScratch and
// call its Contract method instead — the result is bit-identical, the
// scratch just recycles the buffers.
func Contract(g *Graph, coarseOf []int, nCoarse, workers int) *Graph {
	var s ContractScratch
	return s.Contract(g, coarseOf, nCoarse, workers)
}

// ContractScratch owns the working memory of Contract so repeated
// contractions — one per hierarchy level — recycle buffers instead of
// reallocating them. The zero value is ready to use; it grows to the largest
// contraction it has served and stays there. A scratch is not safe for
// concurrent use, but the buffers that escape into the returned coarse Graph
// (offsets, adjacency, weights, coordinates) are always freshly allocated,
// so reusing the scratch never aliases previously returned graphs.
type ContractScratch struct {
	memberOff []int32   // coarse-node member group bounds, len nCoarse+1
	members   []int32   // fine nodes grouped by coarse node, len n
	cursor    []int32   // counting-sort fill cursor, len nCoarse
	cx, cy    []float64 // centroid numerators, len nCoarse (coords only)
	chunks    []contractChunk
	marks     []*contractMark // per-worker stamp arrays
}

// contractChunk is one chunk's output buffers: a chunk-local CSR run over
// its coarse nodes. The slices keep their capacity across levels.
type contractChunk struct {
	adj []int32
	ew  []float64
	// degOff[i] bounds the runs of the chunk's coarse nodes within adj/ew,
	// like a chunk-local CSR offset array.
	degOff []int32
}

// contractMark is one worker's scratch: the stamped pair, where mark[cu] ==
// stamp of the coarse node currently being merged means cu already has a
// slot in its adjacency run, and the sorter of the merged runs.
type contractMark struct {
	mark, slot []int32
	rows       RowSorter
}

// Contract is Contract(g, coarseOf, nCoarse, workers) drawing every working
// buffer from s. See the package-level Contract for semantics; the two are
// bit-identical for all inputs and worker counts.
//
// This is the hot path of multilevel coarsening, so it builds the CSR arrays
// directly instead of going through an edge list: one counting-sort
// pass groups members by coarse node, then a stamped-scratch accumulation
// merges each coarse node's neighborhood in O(deg) without hashing, and the
// worker's RowSorter sorts the merged row. Coarse rows of power-law graphs
// are long hub rows over a few thousand coarse ids, so the sorter's dense
// path places them in one linear pass instead of comparison-sorting them.
// The per-coarse-node merges are independent, so they run on `workers`
// goroutines (<= 0 selects GOMAXPROCS) over disjoint coarse-node ranges;
// every merge writes only its own chunk's buffers, and a sorted row of
// distinct ids is unique, so the result is bit-identical for every worker
// count. The result is identical to the Builder-based construction.
func (s *ContractScratch) Contract(g *Graph, coarseOf []int, nCoarse, workers int) *Graph {
	n := g.NumNodes()
	if len(coarseOf) != n {
		panic(fmt.Sprintf("graph: Contract map covers %d of %d nodes", len(coarseOf), n))
	}
	if nCoarse < 0 {
		panic(fmt.Sprintf("graph: Contract with negative coarse count %d", nCoarse))
	}

	// Group fine nodes by coarse node (counting sort), accumulating weights
	// and centroid numerators in the same pass. nodeWeight escapes into the
	// coarse graph, so it alone is allocated fresh.
	memberOff := growInt32(&s.memberOff, nCoarse+1)
	nodeWeight := make([]float64, nCoarse)
	var cx, cy []float64
	if g.coords != nil {
		cx = growFloat(&s.cx, nCoarse)
		cy = growFloat(&s.cy, nCoarse)
	}
	for v := 0; v < n; v++ {
		c := coarseOf[v]
		if c < 0 || c >= nCoarse {
			panic(fmt.Sprintf("graph: Contract maps node %d to out-of-range coarse node %d (nCoarse=%d)", v, c, nCoarse))
		}
		memberOff[c+1]++
		w := g.nodeWeight[v]
		nodeWeight[c] += w
		if cx != nil {
			p := g.coords[v]
			cx[c] += w * p.X
			cy[c] += w * p.Y
		}
	}
	for c := 0; c < nCoarse; c++ {
		memberOff[c+1] += memberOff[c]
	}
	members := growInt32NoZero(&s.members, n)
	cursor := growInt32NoZero(&s.cursor, nCoarse)
	copy(cursor, memberOff[:nCoarse])
	for v := 0; v < n; v++ {
		c := coarseOf[v]
		members[cursor[c]] = int32(v)
		cursor[c]++
	}

	// Merge each coarse node's neighborhood into per-chunk buffers, in
	// parallel over disjoint coarse-node ranges. Stamps (the coarse node id)
	// are unique within one contraction, so a worker's mark array is reset
	// once per call, not between chunks. Each chunk owns its output buffers,
	// making the merge schedule-independent; the buffers keep their capacity
	// from level to level, and a chunk's first level presizes them from the
	// member fine degrees (an upper bound on the merged adjacency length).
	workers = par.Workers(workers)
	const chunkSize = 512
	numChunks := (nCoarse + chunkSize - 1) / chunkSize
	if cap(s.chunks) < numChunks {
		chunks := make([]contractChunk, numChunks)
		copy(chunks, s.chunks)
		s.chunks = chunks
	}
	chunks := s.chunks[:numChunks]
	if len(s.marks) < workers {
		marks := make([]*contractMark, workers)
		copy(marks, s.marks)
		s.marks = marks
	}
	for _, m := range s.marks {
		if m == nil {
			continue
		}
		// Stamps were only unique within the previous contraction, so a
		// reused mark array must be cleared; slot is guarded by mark.
		mark := growInt32NoZero(&m.mark, nCoarse)
		for i := range mark {
			mark[i] = -1
		}
		growInt32NoZero(&m.slot, nCoarse)
	}
	par.For(workers, numChunks, func(worker, lo, hi int) {
		m := s.marks[worker]
		if m == nil {
			m = &contractMark{mark: make([]int32, nCoarse), slot: make([]int32, nCoarse)}
			for i := range m.mark {
				m.mark[i] = -1
			}
			s.marks[worker] = m
		}
		for ci := lo; ci < hi; ci++ {
			cLo, cHi := ci*chunkSize, (ci+1)*chunkSize
			if cHi > nCoarse {
				cHi = nCoarse
			}
			out := &chunks[ci]
			growInt32NoZero(&out.degOff, cHi-cLo+1)
			out.degOff[0] = 0 // every later entry is assigned below
			if out.adj == nil {
				// First use of this chunk: presize to the summed fine degree
				// of its members, the exact pre-merge adjacency length.
				est := 0
				for c := cLo; c < cHi; c++ {
					for _, v := range members[memberOff[c]:memberOff[c+1]] {
						est += g.Degree(int(v))
					}
				}
				out.adj = make([]int32, 0, est)
				out.ew = make([]float64, 0, est)
			} else {
				out.adj = out.adj[:0]
				out.ew = out.ew[:0]
			}
			for c := cLo; c < cHi; c++ {
				runStart := len(out.adj)
				for _, v := range members[memberOff[c]:memberOff[c+1]] {
					nbrs := g.Neighbors(int(v))
					ws := g.EdgeWeights(int(v))
					for i, u := range nbrs {
						cu := coarseOf[u]
						if cu == c {
							continue
						}
						if m.mark[cu] == int32(c) {
							out.ew[m.slot[cu]] += ws[i]
						} else {
							m.mark[cu] = int32(c)
							m.slot[cu] = int32(len(out.adj))
							out.adj = append(out.adj, int32(cu))
							out.ew = append(out.ew, ws[i])
						}
					}
				}
				m.rows.Sort(out.adj[runStart:], out.ew[runStart:])
				out.degOff[c-cLo+1] = int32(len(out.adj))
			}
		}
	})

	// Assemble the final CSR arrays by concatenating the chunks in coarse-
	// node order — a straight copy, independent of which worker produced
	// which chunk. These arrays escape into the returned graph, so they are
	// allocated fresh (at exact size) rather than drawn from the scratch.
	offsets := make([]int32, nCoarse+1)
	total := 0
	for ci := range chunks {
		total += len(chunks[ci].adj)
	}
	adj := make([]int32, 0, total)
	ew := make([]float64, 0, total)
	for ci := range chunks {
		out := &chunks[ci]
		base := int32(len(adj))
		cLo := ci * chunkSize
		for i := 1; i < len(out.degOff); i++ {
			offsets[cLo+i] = base + out.degOff[i]
		}
		adj = append(adj, out.adj...)
		ew = append(ew, out.ew...)
	}

	coarse := &Graph{
		offsets:    offsets,
		adj:        adj,
		edgeWeight: ew,
		nodeWeight: nodeWeight,
		totalNodeW: sumWeights(nodeWeight),
		numEdges:   len(adj) / 2,
	}
	if cx != nil {
		coarse.coords = make([]Point, nCoarse)
		for c := 0; c < nCoarse; c++ {
			if nodeWeight[c] > 0 {
				coarse.coords[c] = Point{X: cx[c] / nodeWeight[c], Y: cy[c] / nodeWeight[c]}
			}
		}
	}
	return coarse
}

// growInt32 resizes *buf to length n, reusing capacity when it suffices, and
// zeroes the returned slice.
func growInt32(buf *[]int32, n int) []int32 {
	s := growInt32NoZero(buf, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// growInt32NoZero resizes *buf to length n reusing capacity, leaving any
// reused contents in place — for buffers the caller fully overwrites.
func growInt32NoZero(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

// growFloat is growInt32 for float64 buffers.
func growFloat(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		return *buf
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	*buf = s
	return s
}
