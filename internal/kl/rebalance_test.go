package kl

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestRefineFixesGrossImbalance(t *testing.T) {
	// Everything in part 0: rebalance must redistribute into all 4 parts.
	g := gen.Mesh(80, 21)
	p := partition.New(g.NumNodes(), 4)
	Refine(g, p, nil, Config{MaxPasses: 2})
	sizes := p.PartSizes()
	for q, s := range sizes {
		if s == 0 {
			t.Errorf("part %d still empty after rebalance: %v", q, sizes)
		}
	}
	ideal := float64(g.NumNodes()) / 4
	for q, s := range sizes {
		if float64(s) > ideal+2 {
			t.Errorf("part %d overweight after rebalance: %v", q, sizes)
		}
	}
}

func TestRefineHandlesDisconnectedOverweightPart(t *testing.T) {
	// An overweight part with NO boundary nodes (its own component) forces
	// the arbitrary-node fallback in rebalance.
	m1 := gen.Mesh(30, 22)
	b := graph.FromGraph(m1)
	// Second component of 10 isolated-chain nodes, all in part 0 below.
	first := -1
	for i := 0; i < 10; i++ {
		v := b.AddNode(1)
		if first < 0 {
			first = v
		} else {
			b.AddEdge(v-1, v, 1)
		}
	}
	g := b.Build()
	p := partition.New(g.NumNodes(), 2)
	// Component 1 (the mesh) split evenly; the isolated chain all in part 0,
	// making part 0 overweight with its surplus unreachable from part 1.
	for v := 0; v < 15; v++ {
		p.Assign[v] = 1
	}
	Refine(g, p, nil, Config{MaxPasses: 1})
	sizes := p.PartSizes()
	diff := sizes[0] - sizes[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Errorf("rebalance left sizes %v", sizes)
	}
}

func TestRebalanceBalancesWeightNotCount(t *testing.T) {
	// Regression: rebalance used to balance node *counts*, so on a graph
	// with skewed node weights it would happily leave one part holding all
	// the heavy nodes. Here the first 10 nodes weigh 10 and the rest weigh
	// 1, and the starting partition gives part 0 every heavy node plus an
	// equal share of light ones — perfectly count-balanced, grossly
	// weight-imbalanced. A count-based rebalance does nothing; the
	// weight-aware one must move heavy weight out of part 0.
	const n, parts, heavy = 40, 4, 10
	rng := rand.New(rand.NewSource(31))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if v < heavy {
			b.SetNodeWeight(v, 10)
		}
	}
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), 1)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v, 1)
		}
	}
	g := b.Build()
	p := partition.New(n, parts)
	for v := 0; v < n; v++ {
		if v < heavy {
			p.Assign[v] = 0
		} else {
			p.Assign[v] = uint16(v % parts)
		}
	}
	before := p.PartWeights(g)
	Rebalance(g, p, nil, Config{})
	after := p.PartWeights(g)
	ideal := g.TotalNodeWeight() / parts
	if after[0] >= before[0] {
		t.Fatalf("rebalance did not drain the overweight part: %v -> %v", before, after)
	}
	// Single-node moves cannot do better than the heaviest node's weight.
	for q, w := range after {
		if w > ideal+10+1e-9 {
			t.Errorf("part %d weight %.0f still exceeds ideal %.1f + max node weight", q, w, ideal)
		}
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceWeightedDoesNotOscillate(t *testing.T) {
	// A part dominated by one giant node cannot be improved by single-node
	// moves: the imbalance is within the heaviest node's weight, so
	// rebalance must leave the partition untouched rather than ping-pong
	// the giant between parts.
	b := graph.NewBuilder(6)
	b.SetNodeWeight(0, 100)
	for v := 1; v < 6; v++ {
		b.AddEdge(v-1, v, 1)
	}
	g := b.Build()
	p := partition.New(6, 2)
	for v := 3; v < 6; v++ {
		p.Assign[v] = 1
	}
	want := append([]uint16(nil), p.Assign...)
	Rebalance(g, p, nil, Config{})
	for v, q := range p.Assign {
		if q != want[v] {
			t.Fatalf("rebalance moved node %d (weight %v) without improving balance", v, g.NodeWeight(v))
		}
	}
}

func TestRefinePreservesValidity(t *testing.T) {
	g := gen.Mesh(60, 23)
	p := partition.New(g.NumNodes(), 3)
	for v := 0; v < 10; v++ {
		p.Assign[v] = 1
	}
	Refine(g, p, nil, Config{})
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}
