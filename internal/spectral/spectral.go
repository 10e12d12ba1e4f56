// Package spectral implements Recursive Spectral Bisection (RSB), the graph
// partitioning baseline the paper compares against throughout (Pothen, Simon
// & Liou 1990; Simon 1991).
//
// RSB bisects a graph by the sign structure of the Fiedler vector — the
// eigenvector of the graph Laplacian's second-smallest eigenvalue — splitting
// at the median component so the two halves are balanced, then recurses to
// obtain 2^d parts.
package spectral

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// laplacianOp is the sparse graph Laplacian L = D − A as a linalg.MatVec
// operator, so Lanczos never materializes a dense matrix.
type laplacianOp struct {
	g *graph.Graph
}

func (l laplacianOp) Dim() int { return l.g.NumNodes() }

func (l laplacianOp) Apply(dst, x []float64) {
	for v := 0; v < l.g.NumNodes(); v++ {
		nbrs := l.g.Neighbors(v)
		ws := l.g.EdgeWeights(v)
		var deg, acc float64
		for i, u := range nbrs {
			deg += ws[i]
			acc += ws[i] * x[u]
		}
		dst[v] = deg*x[v] - acc
	}
}

// DenseLaplacian materializes L = D − A. Exposed for tests and for the dense
// eigensolver path.
func DenseLaplacian(g *graph.Graph) *linalg.SymDense {
	n := g.NumNodes()
	m := linalg.NewSymDense(n)
	g.Edges(func(u, v int, w float64) bool {
		m.Set(u, v, -w)
		m.Set(u, u, m.At(u, u)+w)
		m.Set(v, v, m.At(v, v)+w)
		return true
	})
	return m
}

// denseThreshold selects the eigensolver: at or below it, the dense Jacobi
// path is used (simple and exact); above it, sparse Lanczos.
const denseThreshold = 400

// Fiedler returns the Fiedler vector of g: the eigenvector of the second-
// smallest Laplacian eigenvalue. The graph must be connected (otherwise the
// second eigenvalue is 0 and the vector is a component indicator, useless
// for bisection); it returns an error if not.
//
// maxIter is the Lanczos iteration budget: it caps the Krylov dimension of
// the sparse solve (0 selects the solver default, currently 40). Full
// reorthogonalization makes each solve cost O(maxIter² · n), so the budget
// is what bounds spectral bisection's wall time on large graphs — a smaller
// budget trades Fiedler accuracy (and so split quality) for a hard runtime
// cap. The dense path below denseThreshold is exact and ignores the budget.
func Fiedler(g *graph.Graph, rng *rand.Rand, maxIter int) ([]float64, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("spectral: graph too small (n=%d)", n)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("spectral: graph disconnected; Fiedler vector undefined")
	}
	if n <= denseThreshold {
		vals, V, err := linalg.JacobiEigen(DenseLaplacian(g))
		if err != nil {
			return nil, err
		}
		_ = vals
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = V[i*n+1] // column 1 = second-smallest
		}
		return out, nil
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	_, V, err := linalg.Lanczos(laplacianOp{g}, 1, rng, [][]float64{ones}, maxIter)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = V[i]
	}
	return out, nil
}

// Bisect splits g into two balanced halves by the median of the Fiedler
// vector computed under the Lanczos budget maxIter (see Fiedler; 0 selects
// the default). It returns the side (0 or 1) of each node. Ties at the
// median are broken by node index so the split is always ⌈n/2⌉/⌊n/2⌋.
func Bisect(g *graph.Graph, rng *rand.Rand, maxIter int) ([]int, error) {
	n := g.NumNodes()
	if n == 1 {
		return []int{0}, nil
	}
	f, err := Fiedler(g, rng, maxIter)
	if err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return f[idx[a]] < f[idx[b]] })
	side := make([]int, n)
	half := (n + 1) / 2
	for rank, v := range idx {
		if rank >= half {
			side[v] = 1
		}
	}
	return side, nil
}

// Partition runs recursive spectral bisection, splitting g into parts parts.
// parts must be a power of two (RSB is inherently a bisection method; the
// paper compares against 2, 4, and 8 parts). Disconnected subgraphs that
// arise during recursion are handled by separating components before
// bisecting. lanczosIter is the Lanczos budget of every bisection level (see
// Fiedler; 0 selects the default): it makes RSB's runtime on large graphs a
// predictable O(levels · lanczosIter² · n) instead of an accuracy-chasing
// unknown, and is exposed through algo.Options.LanczosIter.
func Partition(g *graph.Graph, parts int, rng *rand.Rand, lanczosIter int) (*partition.Partition, error) {
	if parts <= 0 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("spectral: parts must be a power of two, got %d", parts)
	}
	p := partition.New(g.NumNodes(), parts)
	nodes := make([]int, g.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	if err := recurse(g, nodes, 0, parts, p, rng, lanczosIter); err != nil {
		return nil, err
	}
	return p, nil
}

// recurse assigns the given nodes to parts [base, base+span).
func recurse(g *graph.Graph, nodes []int, base, span int, p *partition.Partition, rng *rand.Rand, lanczosIter int) error {
	if span == 1 {
		for _, v := range nodes {
			p.Assign[v] = uint16(base)
		}
		return nil
	}
	if len(nodes) == 0 {
		return nil
	}
	sub, orig := g.InducedSubgraph(nodes)
	side, err := bisectAny(sub, rng, lanczosIter)
	if err != nil {
		return fmt.Errorf("spectral: bisecting %d nodes: %w", len(nodes), err)
	}
	var left, right []int
	for i, s := range side {
		if s == 0 {
			left = append(left, orig[i])
		} else {
			right = append(right, orig[i])
		}
	}
	if err := recurse(g, left, base, span/2, p, rng, lanczosIter); err != nil {
		return err
	}
	return recurse(g, right, base+span/2, span/2, p, rng, lanczosIter)
}

// bisectAny bisects a possibly-disconnected graph into two balanced sides.
// Connected graphs go straight to the spectral split. Disconnected ones are
// handled by iterative split-and-repack: whole components are bin-packed
// largest-first (cheapest cut: zero edges); while the packing is more than
// one node out of balance, the largest splittable item on the heavy side is
// divided (spectrally if connected, into its components otherwise) and the
// packing is redone. Item count grows strictly each round, so the loop
// terminates — in the worst case with single-node items, which pack to
// within one node.
func bisectAny(g *graph.Graph, rng *rand.Rand, lanczosIter int) ([]int, error) {
	n := g.NumNodes()
	if n == 1 {
		return []int{0}, nil
	}
	comp, count := g.Components()
	if count == 1 {
		return Bisect(g, rng, lanczosIter)
	}
	items := make([][]int, count)
	for v, c := range comp {
		items[c] = append(items[c], v)
	}
	side := make([]int, n)
	for {
		// Greedy largest-first packing into the lighter side.
		sort.SliceStable(items, func(a, b int) bool { return len(items[a]) > len(items[b]) })
		var w [2]int
		itemSide := make([]int, len(items))
		for i, it := range items {
			s := 0
			if w[1] < w[0] {
				s = 1
			}
			itemSide[i] = s
			w[s] += len(it)
		}
		imbalance := w[0] - w[1]
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if imbalance <= 1 {
			for i, it := range items {
				for _, v := range it {
					side[v] = itemSide[i]
				}
			}
			return side, nil
		}
		// Split the largest item (>= 2 nodes) on the heavy side.
		heavy := 0
		if w[1] > w[0] {
			heavy = 1
		}
		pick := -1
		for i := range items {
			if itemSide[i] == heavy && len(items[i]) >= 2 {
				pick = i
				break // items are sorted descending: first match is largest
			}
		}
		if pick < 0 {
			// Heavy side is all singletons; greedy packing of singletons is
			// already within 1, so this cannot happen — but never loop.
			for i, it := range items {
				for _, v := range it {
					side[v] = itemSide[i]
				}
			}
			return side, nil
		}
		sub, orig := g.InducedSubgraph(items[pick])
		var newItems [][]int
		if sub.IsConnected() {
			inner, err := Bisect(sub, rng, lanczosIter)
			if err != nil {
				return nil, err
			}
			halves := [2][]int{}
			for i, s := range inner {
				halves[s] = append(halves[s], orig[i])
			}
			newItems = halves[:]
		} else {
			subComp, subCount := sub.Components()
			newItems = make([][]int, subCount)
			for i, c := range subComp {
				newItems[c] = append(newItems[c], orig[i])
			}
		}
		items[pick] = items[len(items)-1]
		items = items[:len(items)-1]
		items = append(items, newItems...)
	}
}
