// Worstcase: directly optimizing the worst-case communication cost
// max_q C(q) — the paper's §4.3. This objective is not differentiable, so
// gradient-style heuristics cannot target it; the GA optimizes it directly
// with Fitness 2. The example shows that a partition with a modest TOTAL cut
// can hide a badly overloaded single processor, and that the GA flattens the
// per-part profile.
//
// Run with: go run ./examples/worstcase
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func main() {
	g := gen.PaperGraph(213)
	const parts = 8

	rsb, err := spectral.Partition(g, parts, rand.New(rand.NewSource(5)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RSB (optimizes neither objective directly):")
	profile(g, rsb)

	run := func(obj partition.Objective, label string) *partition.Partition {
		m, err := dpga.New(g, dpga.Config{
			Base: ga.Config{
				Parts:     parts,
				Objective: obj,
				PopSize:   320,
				Seeds:     []*partition.Partition{rsb},
				Seed:      11,
			},
			Islands:          16,
			CrossoverFactory: func(int) ga.Crossover { return ga.NewDKNUX(rsb) },
		})
		if err != nil {
			log.Fatal(err)
		}
		p := m.Run(150).Part
		fmt.Println(label + ":")
		profile(g, p)
		return p
	}

	total := run(partition.TotalCut, "DKNUX under Fitness 1 (total cut)")
	worst := run(partition.WorstCut, "DKNUX under Fitness 2 (worst cut)")

	fmt.Printf("summary: total-cut objective -> max_q C(q) = %.0f;"+
		" worst-cut objective -> max_q C(q) = %.0f\n",
		total.ObjectiveValue(g, partition.WorstCut),
		worst.ObjectiveValue(g, partition.WorstCut))
	fmt.Println("Fitness 2 trades a little total volume for a flatter profile —")
	fmt.Println("exactly what a bulk-synchronous solver's critical path wants.")
}

func profile(g *graph.Graph, p *partition.Partition) {
	fmt.Printf("  per-part C(q): %.0f\n", p.PartCuts(g))
	fmt.Printf("  total cut=%.0f  worst part=%.0f  commvol=%.0f  sizes=%v\n\n",
		p.ObjectiveValue(g, partition.TotalCut),
		p.ObjectiveValue(g, partition.WorstCut),
		p.ObjectiveValue(g, partition.CommVolume),
		p.PartSizes())
}
