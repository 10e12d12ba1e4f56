package partition

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// evalChunk is the fixed tile width of Track's sharded scans. Like
// par.ReduceChunk, it is a constant rather than a function of the worker
// count: every shard (boundary-count cell, partial volume vector) belongs to
// a chunk, and the merge walks chunks in ascending order, so the
// accumulation grouping — and with it every tracked bit — is identical for
// every worker count.
const evalChunk = 2048

// Reserve grows the Eval's per-node buffer capacities to accommodate a graph
// of n nodes without changing any tracked state. The multilevel uncoarsening
// phase calls it once with the finest graph's size before walking back up the
// hierarchy: every level's Track then reslices within capacity instead of
// reallocating as the levels grow. Disabled trackers stay disabled — Reserve
// presizes only what the Eval already tracks.
func (ev *Eval) Reserve(n, parts int) {
	if ev.extDeg != nil {
		ev.extDeg = reserveInt32(ev.extDeg, n)
		ev.bpos = reserveInt32(ev.bpos, n)
		ev.bnodes = reserveInt32(ev.bnodes, n)
	}
	if ev.nbrCnt != nil {
		ev.nbrCnt = reserveInt32(ev.nbrCnt, n*parts)
		ev.extParts = reserveInt32(ev.extParts, n)
	}
}

// reserveInt32 returns s with capacity at least n, preserving its length and
// contents.
func reserveInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s
	}
	out := make([]int32, len(s), n)
	copy(out, s)
	return out
}

// trackBoundary is Track's boundary half: it (re)builds the boundary set of
// g and p with the O(V+E) adjacency scan sharded over `workers` goroutines.
// Phase one fills extDeg (every slot owned by exactly one chunk) and counts
// each chunk's boundary members; a serial prefix sum assigns each chunk its
// slice of bnodes; phase two writes the members and their bpos slots in
// place. Chunks are contiguous ascending node ranges, so the merged bnodes
// list is ascending at every worker count.
func (ev *Eval) trackBoundary(g *graph.Graph, p *Partition, workers int) {
	n := g.NumNodes()
	// A nil slice is "not tracked", so an empty graph still allocates.
	if ev.extDeg != nil && cap(ev.extDeg) >= n {
		ev.extDeg = ev.extDeg[:n]
		ev.bpos = ev.bpos[:n]
	} else {
		ev.extDeg = make([]int32, n)
		ev.bpos = make([]int32, n)
	}
	if n == 0 {
		ev.bnodes = ev.bnodes[:0]
		return
	}
	a := p.Assign
	nChunks := (n + evalChunk - 1) / evalChunk
	counts := make([]int32, nChunks)
	par.For(workers, nChunks, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*evalChunk, (c+1)*evalChunk
			if hi > n {
				hi = n
			}
			var cnt int32
			for v := lo; v < hi; v++ {
				var ext int32
				for _, u := range g.Neighbors(v) {
					if a[u] != a[v] {
						ext++
					}
				}
				ev.extDeg[v] = ext
				ev.bpos[v] = 0
				if ext > 0 {
					cnt++
				}
			}
			counts[c] = cnt
		}
	})
	var total int32
	offs := counts // reuse: offs[c] becomes the chunk's first bnodes index
	for c := 0; c < nChunks; c++ {
		cnt := counts[c]
		offs[c] = total
		total += cnt
	}
	if cap(ev.bnodes) >= int(total) {
		ev.bnodes = ev.bnodes[:total]
	} else {
		ev.bnodes = make([]int32, total)
	}
	par.For(workers, nChunks, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*evalChunk, (c+1)*evalChunk
			if hi > n {
				hi = n
			}
			idx := offs[c]
			for v := lo; v < hi; v++ {
				if ev.extDeg[v] > 0 {
					ev.bnodes[idx] = int32(v)
					ev.bpos[v] = idx + 1
					idx++
				}
			}
		}
	})
}

// trackCommVol is Track's comm-volume half: it (re)builds the per-(node,
// part) neighbor counts of g and p with the O(V+E) scan sharded over
// `workers` goroutines. Every node's neighbor-count row and foreign-part
// count is owned by exactly one fixed-width chunk, and the per-chunk partial
// volume vectors merge in ascending chunk order, so the rebuilt state is
// bit-identical at every worker count (and, the counters being integers,
// exact).
func (ev *Eval) trackCommVol(g *graph.Graph, p *Partition, workers int) {
	n := g.NumNodes()
	parts := p.Parts
	if ev.nbrCnt != nil && cap(ev.nbrCnt) >= n*parts {
		ev.nbrCnt = ev.nbrCnt[:n*parts]
	} else {
		ev.nbrCnt = make([]int32, n*parts)
	}
	if cap(ev.extParts) >= n {
		ev.extParts = ev.extParts[:n]
	} else {
		ev.extParts = make([]int32, n)
	}
	if len(ev.Vols) != parts {
		ev.Vols = make([]float64, parts)
	}
	for q := range ev.Vols {
		ev.Vols[q] = 0
	}
	if n == 0 {
		return
	}
	a := p.Assign
	nChunks := (n + evalChunk - 1) / evalChunk
	partV := make([]float64, nChunks*parts)
	par.For(workers, nChunks, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*evalChunk, (c+1)*evalChunk
			if hi > n {
				hi = n
			}
			pv := partV[c*parts : (c+1)*parts]
			for v := lo; v < hi; v++ {
				row := ev.nbrCnt[v*parts : (v+1)*parts]
				for q := range row {
					row[q] = 0
				}
				for _, u := range g.Neighbors(v) {
					row[a[u]]++
				}
				var ext int32
				own := int(a[v])
				for q, cnt := range row {
					if cnt > 0 && q != own {
						ext++
					}
				}
				ev.extParts[v] = ext
				pv[own] += float64(ext)
			}
		}
	})
	for c := 0; c < nChunks; c++ {
		for q := 0; q < parts; q++ {
			ev.Vols[q] += partV[c*parts+q]
		}
	}
}

// BoundaryLen returns the size of the tracked boundary set. It panics if
// tracking is not enabled.
func (ev *Eval) BoundaryLen() int {
	if ev.extDeg == nil {
		panic("partition: BoundaryLen called on Eval without boundary tracking")
	}
	return len(ev.bnodes)
}

// BoundaryNode returns the i-th tracked boundary node in the set's internal
// order — arbitrary, but fixed between Moves, which is what parallel argmax
// scans over par-owned index ranges need (callers wanting deterministic
// results break ties on node id themselves). It panics if tracking is not
// enabled.
func (ev *Eval) BoundaryNode(i int) int {
	if ev.extDeg == nil {
		panic("partition: BoundaryNode called on Eval without boundary tracking")
	}
	return int(ev.bnodes[i])
}
