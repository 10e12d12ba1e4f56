package ga

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Crossover produces one offspring partition from two parents. Operators may
// consult the graph (KNUX does); traditional operators ignore it.
//
// All operators satisfy the closure property: every offspring gene value
// comes from one of the parents at the same position.
type Crossover interface {
	// Name identifies the operator in reports and benchmarks.
	Name() string
	// Cross returns a new offspring; parents are not modified.
	Cross(g *graph.Graph, a, b *Individual, rng *rand.Rand) *partition.Partition
}

// KPoint is the classic k-point crossover: k distinct cut sites split the
// chromosome into k+1 segments copied alternately from each parent.
// KPoint{K: 1} is one-point crossover, KPoint{K: 2} the two-point crossover
// the paper benchmarks against.
type KPoint struct {
	K int
}

// Name implements Crossover.
func (c KPoint) Name() string { return fmt.Sprintf("%d-point", c.K) }

// Cross implements Crossover.
func (c KPoint) Cross(g *graph.Graph, a, b *Individual, rng *rand.Rand) *partition.Partition {
	n := len(a.Part.Assign)
	if c.K <= 0 || c.K >= n {
		panic(fmt.Sprintf("ga: k-point crossover with k=%d on %d genes", c.K, n))
	}
	// k distinct cut sites in [1, n-1].
	sites := make(map[int]bool, c.K)
	for len(sites) < c.K {
		sites[1+rng.Intn(n-1)] = true
	}
	cuts := make([]int, 0, c.K)
	for s := range sites {
		cuts = append(cuts, s)
	}
	sort.Ints(cuts)

	child := a.Part.Clone()
	src := [2]*partition.Partition{a.Part, b.Part}
	cur, next := 0, 0
	for i := 0; i < n; i++ {
		for next < len(cuts) && cuts[next] == i {
			cur ^= 1
			next++
		}
		child.Assign[i] = src[cur].Assign[i]
	}
	return child
}

// Uniform is Syswerda's uniform crossover (UX): each gene is inherited from
// either parent with probability 1/2, independently.
type Uniform struct{}

// Name implements Crossover.
func (Uniform) Name() string { return "uniform" }

// Cross implements Crossover.
func (Uniform) Cross(g *graph.Graph, a, b *Individual, rng *rand.Rand) *partition.Partition {
	child := a.Part.Clone()
	for i := range child.Assign {
		if rng.Intn(2) == 1 {
			child.Assign[i] = b.Part.Assign[i]
		}
	}
	return child
}

// KNUX is the paper's Knowledge-based Non-Uniform Crossover. It biases each
// gene toward the parent whose assignment of node i better agrees with a
// heuristic estimate partition I over i's neighborhood:
//
//	#(i, X, I) = |{ j ∈ Γ(i) : I[j] == X[i] }|
//	p_i = 0.5                                   if both counts are zero
//	p_i = #(i,a,I) / (#(i,a,I) + #(i,b,I))      otherwise
//
// and the child takes gene i from parent a with probability p_i (genes on
// which the parents agree are copied unchanged). The estimate is typically a
// good solution from IBP or RSB.
type KNUX struct {
	estimate *partition.Partition
}

// NewKNUX returns KNUX with the given initial estimate I. The estimate is
// cloned, so callers may keep mutating their copy.
func NewKNUX(estimate *partition.Partition) *KNUX {
	if estimate == nil {
		panic("ga: KNUX requires a non-nil estimate")
	}
	return &KNUX{estimate: estimate.Clone()}
}

// Name implements Crossover.
func (k *KNUX) Name() string { return "KNUX" }

// Estimate returns the current estimate partition (not a copy).
func (k *KNUX) Estimate() *partition.Partition { return k.estimate }

// Cross implements Crossover.
func (k *KNUX) Cross(g *graph.Graph, a, b *Individual, rng *rand.Rand) *partition.Partition {
	child := a.Part.Clone()
	ia := k.estimate.Assign
	pa, pb := a.Part.Assign, b.Part.Assign
	for i := range child.Assign {
		if pa[i] == pb[i] {
			continue // c_i = a_i already
		}
		var ca, cb int
		for _, j := range g.Neighbors(i) {
			if ia[j] == pa[i] {
				ca++
			}
			if ia[j] == pb[i] {
				cb++
			}
		}
		p := 0.5
		if ca+cb > 0 {
			p = float64(ca) / float64(ca+cb)
		}
		if rng.Float64() >= p {
			child.Assign[i] = pb[i]
		}
	}
	return child
}

// DKNUX is the paper's Dynamic KNUX: identical recombination to KNUX, but
// the estimate I is continually updated to the best solution found so far in
// the genetic search. The engine performs the update through SetEstimate
// whenever a new global best appears.
type DKNUX struct {
	KNUX
}

// NewDKNUX returns DKNUX seeded with an initial estimate (usually the best
// individual of the initial population).
func NewDKNUX(estimate *partition.Partition) *DKNUX {
	return &DKNUX{KNUX: *NewKNUX(estimate)}
}

// Name implements Crossover.
func (d *DKNUX) Name() string { return "DKNUX" }

// SetEstimate replaces the estimate with a clone of best. The engine calls
// this on every global-best improvement that is fitter than the estimate,
// realizing the paper's "continually updates the estimate I to be the
// current best solution".
func (d *DKNUX) SetEstimate(best *partition.Partition) {
	d.estimate = best.Clone()
}
