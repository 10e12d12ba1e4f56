// Package incremental implements the paper's incremental graph partitioning
// (§3.5, §4.2): when a partitioned graph grows — nodes added in a local area,
// as in adaptive mesh refinement — the previous partition seeds the GA
// population for the grown graph, and the GA repairs the partition far more
// cheaply (and better) than repartitioning from scratch.
//
// Three strategies are provided for comparison, matching the paper's
// Tables 3 and 6:
//
//   - GA (DKNUX) seeded with the carried-over partition,
//   - RSB from scratch on the grown graph (the paper's baseline), and
//   - the deterministic majority-neighbor rule (which the paper notes the GA
//     beats: "results ... could not be obtained by a simple deterministic
//     algorithm that assigns new nodes to the part to which most of its
//     nearest neighbors belong").
package incremental

import (
	"fmt"
	"math/rand"

	"repro/internal/algo"
	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Config parameterizes an incremental GA repartitioning.
type Config struct {
	// Options carries the registry-style configuration: parts (default: the
	// old partition's), objective, generations (default 80), population
	// (default 320), islands (default 16; 1 selects a single population),
	// eval workers and seed. Options.PopSize is the TOTAL population across
	// islands (dpga divides it).
	Options algo.Options

	// SeedCopies is how many distinct balance-repaired extensions of the old
	// partition seed the population; default 8.
	SeedCopies int

	HillClimb bool // apply boundary hill climbing to offspring
}

// Repartition repairs oldPart (a partition of the original graph) for the
// grown graph using the DKNUX GA. The grown graph must contain the original
// nodes with unchanged indices (as gen.Refine guarantees).
func Repartition(grown *graph.Graph, oldPart *partition.Partition, cfg Config) (*partition.Partition, error) {
	o := cfg.Options
	if o.Generations == 0 {
		o.Generations = 80
	}
	if o.PopSize == 0 {
		o.PopSize = 320
	}
	if o.Islands == 0 {
		o.Islands = 16 // the paper's 4-d hypercube
	}
	seedCopies := cfg.SeedCopies
	if seedCopies == 0 {
		seedCopies = 8
	}
	if o.Parts == 0 {
		o.Parts = oldPart.Parts
	}
	if o.Parts != oldPart.Parts {
		return nil, fmt.Errorf("incremental: config wants %d parts, old partition has %d", o.Parts, oldPart.Parts)
	}
	if len(oldPart.Assign) > grown.NumNodes() {
		return nil, fmt.Errorf("incremental: old partition covers %d nodes, grown graph has %d",
			len(oldPart.Assign), grown.NumNodes())
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Seed population: several independent balance-repaired extensions of
	// the old partition (§3.5: "the previous partitioning can itself be used
	// ... by randomly assigning new graph nodes ... while at the same time
	// ensuring that balance is maintained").
	// The deterministic extension seeds the pool first, so it enters the
	// population even under tiny island sizes: the GA can then never be
	// worse than the baseline it is compared against.
	seeds := make([]*partition.Partition, 0, seedCopies+1)
	seeds = append(seeds, partition.ExtendMajorityNeighbor(oldPart, grown))
	for i := 0; i < seedCopies; i++ {
		seeds = append(seeds, partition.ExtendRandomBalanced(oldPart, grown, rng))
	}

	m, err := dpga.New(grown, dpga.Config{
		Base: ga.Config{
			Parts:       o.Parts,
			Objective:   o.Objective,
			PopSize:     o.PopSize,
			Seeds:       seeds,
			HillClimb:   cfg.HillClimb,
			EvalWorkers: o.EvalWorkers,
			Seed:        o.Seed,
		},
		Islands: o.Islands,
		CrossoverFactory: func(island int) ga.Crossover {
			return ga.NewDKNUX(seeds[island%len(seeds)])
		},
	})
	if err != nil {
		return nil, err
	}
	return m.Run(o.Generations).Part, nil
}

// FromScratch partitions the grown graph with any registry algorithm,
// ignoring the old partition — the from-scratch comparison column, run
// through the same registry path (and therefore the same objective and
// constraint validation) as every other consumer.
func FromScratch(grown *graph.Graph, algoName string, opts algo.Options) (*partition.Partition, error) {
	return algo.Run(grown, algoName, opts)
}

// RSBFromScratch partitions the grown graph with recursive spectral
// bisection, ignoring the old partition — the paper's comparison column.
// It is FromScratch("rsb", ...) with the historical signature.
func RSBFromScratch(grown *graph.Graph, parts int, seed int64) (*partition.Partition, error) {
	return FromScratch(grown, "rsb", algo.Options{Parts: parts, Seed: seed})
}

// MajorityNeighbor extends oldPart with the deterministic rule only
// (no GA) — the paper's "simple deterministic algorithm" straw man.
func MajorityNeighbor(grown *graph.Graph, oldPart *partition.Partition) *partition.Partition {
	return partition.ExtendMajorityNeighbor(oldPart, grown)
}

// MovedNodes counts how many original nodes changed parts between the old
// partition and the repaired one: the remapping cost that incremental
// partitioning tries to keep low (data migration in the parallel
// application).
func MovedNodes(oldPart, newPart *partition.Partition) int {
	n := len(oldPart.Assign)
	if len(newPart.Assign) < n {
		n = len(newPart.Assign)
	}
	moved := 0
	for v := 0; v < n; v++ {
		if oldPart.Assign[v] != newPart.Assign[v] {
			moved++
		}
	}
	return moved
}
