package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refValidate is Validate as it was before the cursor pass: two binary
// searches (HasEdge, then EdgeWeightBetween) per directed edge. The
// differential test holds Validate to it.
func refValidate(g *Graph) error {
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
	hasEdge := func(u, v int) (float64, bool) {
		nbrs := g.Neighbors(u)
		i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
		if i < len(nbrs) && nbrs[i] == int32(v) {
			return g.EdgeWeights(u)[i], true
		}
		return 0, false
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		nbrs := g.Neighbors(v)
		for i, u := range nbrs {
			if int(u) == v {
				return fmt.Errorf("graph: self loop at node %d", v)
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if _, ok := hasEdge(int(u), v); !ok {
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, u)
			}
			if w, _ := hasEdge(int(u), v); w != g.EdgeWeights(v)[i] {
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

// corruptRandomly applies one random corruption to c in place: a retargeted
// entry (possibly out of range or a self loop), a changed weight, a dropped
// entry, or two swapped entries. Weights come from {1, 2, 3}, so a change
// may restore symmetry, and dropping both directions of an edge leaves a
// valid graph: the test needs valid outcomes as well as invalid ones. The
// edge count follows the adjacency, so only the structural checks can
// object.
func corruptRandomly(rng *rand.Rand, c *Graph) {
	n := c.NumNodes()
	if len(c.adj) == 0 {
		return
	}
	i := rng.Intn(len(c.adj))
	switch rng.Intn(4) {
	case 0:
		c.adj[i] = int32(rng.Intn(n+2) - 1)
	case 1:
		c.edgeWeight[i] = float64(1 + rng.Intn(3))
	case 2:
		c.adj = append(c.adj[:i], c.adj[i+1:]...)
		c.edgeWeight = append(c.edgeWeight[:i], c.edgeWeight[i+1:]...)
		for v := 1; v <= n; v++ {
			if int(c.offsets[v]) > i {
				c.offsets[v]--
			}
		}
		c.numEdges = len(c.adj) / 2
	case 3:
		j := rng.Intn(len(c.adj))
		c.adj[i], c.adj[j] = c.adj[j], c.adj[i]
		c.edgeWeight[i], c.edgeWeight[j] = c.edgeWeight[j], c.edgeWeight[i]
	}
}

// Validate must agree with the binary-search reference on nil vs non-nil
// over thousands of small random graphs with one to three random
// corruptions each, and over the uncorrupted graphs themselves.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	valid, invalid := 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(10)
		b := NewBuilder(n)
		p := rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v, float64(1+rng.Intn(3)))
				}
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: built graph rejected: %v", trial, err)
		}
		c := &Graph{
			offsets:    append([]int32(nil), g.offsets...),
			adj:        append([]int32(nil), g.adj...),
			edgeWeight: append([]float64(nil), g.edgeWeight...),
			nodeWeight: g.nodeWeight,
			numEdges:   g.numEdges,
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			corruptRandomly(rng, c)
		}
		got, want := c.Validate(), refValidate(c)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: Validate = %v, reference = %v\noffsets %v\nadj %v\nweights %v",
				trial, got, want, c.offsets, c.adj, c.edgeWeight)
		}
		if got == nil {
			valid++
		} else {
			invalid++
		}
	}
	// Both outcomes must be common, or agreement shows little.
	if valid < 1000 || invalid < 1000 {
		t.Errorf("corrupted graphs: %d valid, %d invalid; want at least 1000 of each", valid, invalid)
	}
}
