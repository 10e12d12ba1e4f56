// Weighted: partitioning with non-unit node and edge weights — the paper's
// experiments assume unit weights but note that "weighted edges and nodes
// can also be handled easily"; this example exercises that path end to end.
//
// The scenario is a multi-physics mesh: nodes in a "refined" region carry
// 3x the computation weight (smaller elements, more work), and edges near
// the region carry heavier coupling. A good partition must balance WEIGHT
// (not node count) and avoid cutting the heavy edges. The example compares
// RSB (which sees edge weights through the Laplacian but balances node
// counts) with the DKNUX GA (which optimizes the weighted fitness
// directly), reporting both with the metrics package.
//
// Run with: go run ./examples/weighted
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func main() {
	g := buildWeightedMesh(213)
	const parts = 4
	fmt.Printf("weighted mesh: %d nodes (total weight %.0f), %d edges\n\n",
		g.NumNodes(), g.TotalNodeWeight(), g.NumEdges())

	rsb, err := spectral.Partition(g, parts, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	show("RSB (count-balanced)", g, rsb)

	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:   parts,
			PopSize: 320,
			Seeds:   []*partition.Partition{rsb},
			Seed:    9,
		},
		Islands:          16,
		CrossoverFactory: func(int) ga.Crossover { return ga.NewDKNUX(rsb) },
	})
	if err != nil {
		log.Fatal(err)
	}
	gaPart := m.Run(200).Part
	show("DKNUX (weight-aware fitness)", g, gaPart)

	ra, _ := metrics.Analyze(g, rsb)
	rb, _ := metrics.Analyze(g, gaPart)
	fmt.Println("verdict:", metrics.Compare("RSB", ra, "DKNUX", rb))
}

// buildWeightedMesh triples node weights inside a refined disc and scales
// edge weights by the mean endpoint weight (finer coupling).
func buildWeightedMesh(n int) *graph.Graph {
	base := gen.PaperGraph(n)
	b := graph.NewBuilder(n)
	weight := func(v int) float64 {
		c := base.Coord(v)
		dx, dy := c.X-0.3, c.Y-0.3
		if dx*dx+dy*dy < 0.04 { // refined region around (0.3, 0.3)
			return 3
		}
		return 1
	}
	for v := 0; v < n; v++ {
		b.SetCoord(v, base.Coord(v))
		b.SetNodeWeight(v, weight(v))
	}
	base.Edges(func(u, v int, w float64) bool {
		b.AddEdge(u, v, (weight(u)+weight(v))/2)
		return true
	})
	return b.Build()
}

func show(name string, g *graph.Graph, p *partition.Partition) {
	r, err := metrics.Analyze(g, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n  weighted loads: %.0f (ratio %.3f)\n  weighted cut: %.1f  worst halo: %.1f\n\n",
		name, r.ComputeLoad, r.LoadRatio, r.Cut, r.WorstHalo)
}
