// Meshdecomp: domain decomposition for a parallel FEM-style solver — the
// application the paper's introduction motivates. The mesh is partitioned
// across "processors"; each iteration of a simulated Jacobi solver then
// requires every processor to exchange halo values along cut edges, so the
// partition quality directly sets the communication volume.
//
// The example compares the per-processor communication volumes (halo sizes)
// induced by RSB and by the DKNUX GA under the worst-cut objective — the
// non-differentiable cost that only the GA can optimize directly — and runs
// a few solver iterations to show the decomposition in action.
//
// Run with: go run ./examples/meshdecomp
package main

import (
	"fmt"
	"log"
	"math"
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
	g := gen.PaperGraph(279)
	const parts = 8
	fmt.Printf("mesh: %d nodes, %d edges decomposed onto %d processors\n\n",
		g.NumNodes(), g.NumEdges(), parts)

	rsb, err := spectral.Partition(g, parts, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	report("RSB", g, rsb)

	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:     parts,
			Objective: partition.WorstCut, // minimize the bottleneck processor
			PopSize:   320,
			Seeds:     []*partition.Partition{rsb},
			Seed:      7,
		},
		Islands:          16,
		CrossoverFactory: func(int) ga.Crossover { return ga.NewDKNUX(rsb) },
	})
	if err != nil {
		log.Fatal(err)
	}
	gaPart := m.Run(150).Part
	report("DKNUX (worst-cut objective)", g, gaPart)

	// Full decomposition-quality reports and a head-to-head verdict.
	rRSB, err := metrics.Analyze(g, rsb)
	if err != nil {
		log.Fatal(err)
	}
	rGA, err := metrics.Analyze(g, gaPart)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("decomposition metrics (GA):")
	fmt.Println(rGA.Format())
	fmt.Println("verdict:", metrics.Compare("RSB", rRSB, "DKNUX", rGA))
	fmt.Println()

	fmt.Println("simulated Jacobi relaxation (5 sweeps) under the GA decomposition:")
	solve(g, gaPart, 5)
}

// report prints the halo (communication) profile of a decomposition.
func report(name string, g *graph.Graph, p *partition.Partition) {
	cuts := p.PartCuts(g)
	var worst, total float64
	for _, c := range cuts {
		total += c
		if c > worst {
			worst = c
		}
	}
	fmt.Printf("%s:\n  per-processor halo edges: %.0f\n  worst processor: %.0f, total: %.0f, sizes: %v\n\n",
		name, cuts, worst, total/2, p.PartSizes())
}

// solve runs a toy Jacobi relaxation u <- mean(neighbors), tracking how many
// values cross processor boundaries per sweep (the halo exchange volume).
func solve(g *graph.Graph, p *partition.Partition, sweeps int) {
	n := g.NumNodes()
	u := make([]float64, n)
	for v := range u {
		c := g.Coord(v)
		u[v] = math.Sin(3*c.X) * math.Cos(3*c.Y) // arbitrary initial field
	}
	for s := 0; s < sweeps; s++ {
		next := make([]float64, n)
		exchanged := 0
		var residual float64
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			if len(nbrs) == 0 {
				next[v] = u[v]
				continue
			}
			var sum float64
			for _, w := range nbrs {
				sum += u[w]
				if p.Assign[w] != p.Assign[v] {
					exchanged++ // this value crossed a processor boundary
				}
			}
			next[v] = sum / float64(len(nbrs))
			residual += math.Abs(next[v] - u[v])
		}
		u = next
		fmt.Printf("  sweep %d: halo values exchanged=%d, residual=%.4f\n", s+1, exchanged, residual)
	}
}
