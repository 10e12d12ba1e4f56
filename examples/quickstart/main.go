// Quickstart: generate an unstructured mesh, partition it into 8 parts with
// the paper's DKNUX genetic algorithm, and compare against recursive
// spectral bisection.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/ibp"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func main() {
	// A 167-node unstructured mesh from the deterministic benchmark suite.
	g := gen.PaperGraph(167)
	const parts = 8
	fmt.Printf("mesh: %d nodes, %d edges -> %d parts\n", g.NumNodes(), g.NumEdges(), parts)

	// Baseline 1: recursive spectral bisection.
	rsb, err := spectral.Partition(g, parts, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RSB    cut=%3.0f  worst=%3.0f  sizes=%v\n",
		rsb.CutSize(g), rsb.MaxPartCut(g), rsb.PartSizes())

	// Baseline 2 and GA seed: index-based partitioning (shuffled row-major).
	seed, err := ibp.Partition(g, parts, ibp.ShuffledRowMajor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IBP    cut=%3.0f  worst=%3.0f  sizes=%v\n",
		seed.CutSize(g), seed.MaxPartCut(g), seed.PartSizes())

	// The paper's GA: 320 individuals over 16 hypercube-connected islands,
	// DKNUX crossover, population seeded with the IBP solution.
	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:   parts,
			PopSize: 320,
			Seeds:   []*partition.Partition{seed},
			Seed:    42,
		},
		Islands: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	best := m.Run(200)
	p := best.Part
	fmt.Printf("DKNUX  cut=%3.0f  worst=%3.0f  sizes=%v\n",
		p.CutSize(g), p.MaxPartCut(g), p.PartSizes())
	fmt.Printf("\nDKNUX improved the seed's cut by %.0f edges over 200 generations.\n",
		seed.CutSize(g)-p.CutSize(g))
}
