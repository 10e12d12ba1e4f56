package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/partition"
)

// runDKNUX executes opt.Runs independent DPGA runs with the DKNUX operator
// and returns the best partition found (the paper's tables report the best
// of 5 runs). seeds optionally initializes the populations (IBP, RSB, or a
// carried-over incremental partition); with no seeds the populations are
// random, matching Table 4's "randomly initialized population".
func runDKNUX(g *graph.Graph, parts int, obj partition.Objective,
	seeds []*partition.Partition, opt Options, caseSeed int64) *partition.Partition {

	var best *partition.Partition
	bestFit := 0.0
	for r := 0; r < opt.Runs; r++ {
		p := runOnce(g, parts, obj, seeds, opt, caseSeed+int64(r)*104729)
		if f := p.Fitness(g, obj); best == nil || f > bestFit {
			best, bestFit = p, f
		}
	}
	return best
}

// runOnce is a single DPGA DKNUX run (one island is a single population).
func runOnce(g *graph.Graph, parts int, obj partition.Objective,
	seeds []*partition.Partition, opt Options, runSeed int64) *partition.Partition {

	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:       parts,
			Objective:   obj,
			PopSize:     opt.TotalPop,
			Seeds:       seeds,
			HillClimb:   opt.HillClimb,
			EvalWorkers: opt.EvalWorkers,
			Seed:        runSeed,
		},
		Islands: opt.Islands,
		CrossoverFactory: func(island int) ga.Crossover {
			if len(seeds) > 0 {
				return ga.NewDKNUX(seeds[island%len(seeds)])
			}
			rng := rand.New(rand.NewSource(runSeed + int64(island)))
			return ga.NewDKNUX(partition.RandomBalanced(g.NumNodes(), parts, rng))
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return m.Run(opt.Generations).Part
}
