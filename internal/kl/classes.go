package kl

import (
	"cmp"
	"math/bits"
	"slices"
)

// classes groups a node set by a deterministic proper coloring of the set's
// induced subgraph: first-fit greedy in descending hashed-priority order,
// which yields exactly the coloring Jones–Plassmann rounds over the same
// priorities would (a node takes its color once all its higher-priority
// neighbors have theirs and before any lower-priority one, so its color is
// the smallest one absent among its higher-priority neighbors either way).
// Two nodes of one color class share no edge, so their candidate moves can
// be gain-evaluated concurrently against class-start state without one move
// invalidating another's deltas — the scheduling substrate of the colored
// boundary sweep (per tile, under both Climb and Propagate).
//
// The zero value is ready to use. The slices returned by group alias the
// scratch and are valid until the next call; a classes is not safe for
// concurrent use.
type classes struct {
	bIndex  []int32 // graph node -> 1 + position in the current set; 0 = absent
	members []int32 // set nodes grouped by color, ascending within a class
	off     []int32 // members[off[c]:off[c+1]] = color class c
	fill    []int32 // counting-sort fill cursor per class
	color   []int32 // color per set index; -1 until first-fit reaches it
	order   []int32 // set indices 0..len(order)-1 by descending prio
	high    []int32 // colors >= 64 around the index being colored
	scanned int     // adjacency entries the last group call scanned
	// sorted is 0..len(sorted)-1 by descending prio, for the largest set
	// size sorted so far; keyed is its sort scratch.
	sorted []int32
	keyed  []prioIndex
}

// prioIndex is one set index with its precomputed priority, the sort key of
// the first-fit order.
type prioIndex struct {
	key uint64
	i   int32
}

// adjacency is what group colors over: *graph.Graph in production, raw
// adjacency lists (self-loops, duplicate entries) in the oracle tests.
type adjacency interface {
	NumNodes() int
	Neighbors(v int) []int32
}

// group colors the induced subgraph of nodes — which must be ascending and
// duplicate-free — and returns the set grouped class by class:
// members[off[c]:off[c+1]] is color class c, internally ascending (the
// counting sort iterates the ascending input in order). The grouping is a
// pure function of (g, nodes), so every caller sweeping "class by class,
// ascending inside" walks one deterministic permutation of the set.
//
// Each member's adjacency is scanned exactly once (cs.scanned counts the
// entries: Σ deg(v) over the set), so a call costs O(Σ deg + n log n)
// however skewed the degrees.
func (cs *classes) group(g adjacency, nodes []int) (members []int32, off []int32) {
	if len(cs.bIndex) < g.NumNodes() {
		cs.bIndex = make([]int32, g.NumNodes())
	}
	for i, v := range nodes {
		cs.bIndex[v] = int32(i + 1)
	}
	nColors := cs.firstFit(g, nodes)
	colors := cs.color
	cs.off = ensureInt32(cs.off, nColors+1)
	for i := range cs.off {
		cs.off[i] = 0
	}
	for _, cl := range colors {
		cs.off[cl+1]++
	}
	for cl := 0; cl < nColors; cl++ {
		cs.off[cl+1] += cs.off[cl]
	}
	cs.members = ensureInt32(cs.members, len(nodes))
	cs.fill = ensureInt32(cs.fill, nColors)
	for i := range cs.fill {
		cs.fill[i] = 0
	}
	for i, v := range nodes {
		cl := colors[i]
		cs.members[cs.off[cl]+cs.fill[cl]] = int32(v)
		cs.fill[cl]++
	}
	// Restore bIndex's zero invariant, so the next group — of any node set —
	// starts clean without an O(NumNodes) sweep.
	for _, v := range nodes {
		cs.bIndex[v] = 0
	}
	return cs.members, cs.off
}

// firstFit colors the set indexed by bIndex into cs.color and returns the
// number of colors. Indices are visited in descending prio order; each takes
// the smallest color none of its already-colored induced neighbors has.
// Colors below 64 are tracked in a bitmask; the rare higher ones (an index
// with 64+ distinctly-colored neighbors) fall back to a slice scan.
// Neighbors outside the set are invisible, and a self-loop is harmless: an
// index is still uncolored while its own adjacency is scanned.
func (cs *classes) firstFit(g adjacency, nodes []int) int {
	n := len(nodes)
	cs.sortByPrio(n)
	color := ensureInt32(cs.color, n)
	for i := range color {
		color[i] = -1
	}
	cs.color = color
	nColors, scanned := int32(0), 0
	for _, i := range cs.order {
		var mask uint64
		high := cs.high[:0]
		nbrs := g.Neighbors(nodes[i])
		scanned += len(nbrs)
		for _, u := range nbrs {
			j := cs.bIndex[u]
			if j == 0 {
				continue
			}
			if c := color[j-1]; c >= 0 {
				if c < 64 {
					mask |= 1 << uint(c)
				} else {
					high = append(high, c)
				}
			}
		}
		c := int32(bits.TrailingZeros64(^mask))
		if mask == ^uint64(0) {
			for slices.Contains(high, c) {
				c++
			}
		}
		cs.high = high
		color[i] = c
		nColors = max(nColors, c+1)
	}
	cs.scanned = scanned
	return int(nColors)
}

// sortByPrio fills cs.order with 0..n-1 by descending prio. The order is a
// function of n alone, so consecutive calls of one size — every full tile of
// a sweep — reuse it. And since prio is a fixed key per index, the order of
// 0..n-1 is the order of any larger range with the indices >= n dropped: only
// a size larger than any before sorts (into cs.sorted), and every other size
// filters that order in one linear pass.
func (cs *classes) sortByPrio(n int) {
	if len(cs.order) == n {
		return
	}
	if n > len(cs.sorted) {
		keyed := slices.Grow(cs.keyed[:0], n)
		for i := 0; i < n; i++ {
			keyed = append(keyed, prioIndex{key: prio(i), i: int32(i)})
		}
		slices.SortFunc(keyed, func(a, b prioIndex) int { return cmp.Compare(b.key, a.key) })
		cs.keyed = keyed
		cs.sorted = ensureInt32(cs.sorted, n)
		for k, e := range keyed {
			cs.sorted[k] = e.i
		}
	}
	order := slices.Grow(cs.order[:0], n)
	for _, i := range cs.sorted {
		if int(i) < n {
			order = append(order, i)
		}
	}
	cs.order = order
}

// prio is a splitmix64-style finalizer: a bijection on 64-bit integers, so
// distinct indices always have distinct priorities and the first-fit order
// needs no tie-breaking.
func prio(i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
