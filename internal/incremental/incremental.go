// Package incremental implements the paper's incremental graph partitioning
// (§3.5, §4.2): when a partitioned graph grows — nodes added in a local area,
// as in adaptive mesh refinement — the previous partition seeds the GA
// population for the grown graph, and the GA repairs the partition far more
// cheaply (and better) than repartitioning from scratch.
//
// The paper's Tables 3 and 6 compare the seeded DKNUX GA (Repartition)
// against two baselines that need no code here: RSB from scratch on the
// grown graph (algo.Run with "rsb") and the deterministic majority-neighbor
// rule (partition.ExtendMajorityNeighbor), which the paper notes the GA
// beats: "results ... could not be obtained by a simple deterministic
// algorithm that assigns new nodes to the part to which most of its nearest
// neighbors belong".
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
	// and islands (dpga's defaults, 320 and 16; 1 island selects a single
	// population), eval workers and seed. Options.PopSize is the TOTAL
	// population across islands (dpga divides it).
	Options algo.Options

	HillClimb bool // apply boundary hill climbing to offspring
}

// seedCopies is how many distinct balance-repaired extensions of the old
// partition seed the population, after the deterministic one.
const seedCopies = 8

// Seeds is the seed pool of §3.5 for the grown graph: several independent
// balance-repaired extensions of old ("the previous partitioning can itself
// be used ... by randomly assigning new graph nodes ... while at the same
// time ensuring that balance is maintained"), drawn from rng. The
// deterministic majority-neighbor extension comes first, so it enters the
// population even under tiny island sizes: the GA can then never be worse
// than the baseline it is compared against.
func Seeds(old *partition.Partition, grown *graph.Graph, rng *rand.Rand) []*partition.Partition {
	seeds := make([]*partition.Partition, 0, seedCopies+1)
	seeds = append(seeds, partition.ExtendMajorityNeighbor(old, grown))
	for i := 0; i < seedCopies; i++ {
		seeds = append(seeds, partition.ExtendRandomBalanced(old, grown, rng))
	}
	return seeds
}

// Repartition repairs oldPart (a partition of the original graph) for the
// grown graph using the DKNUX GA. The grown graph must contain the original
// nodes with unchanged indices (as gen.Refine guarantees).
func Repartition(grown *graph.Graph, oldPart *partition.Partition, cfg Config) (*partition.Partition, error) {
	o := cfg.Options
	if o.Generations == 0 {
		o.Generations = 80
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
	m, err := dpga.New(grown, dpga.Config{
		Base: ga.Config{
			Parts:       o.Parts,
			Objective:   o.Objective,
			PopSize:     o.PopSize,
			Seeds:       Seeds(oldPart, grown, rand.New(rand.NewSource(o.Seed))),
			HillClimb:   cfg.HillClimb,
			EvalWorkers: o.EvalWorkers,
			Seed:        o.Seed,
		},
		Islands: o.Islands,
	})
	if err != nil {
		return nil, err
	}
	return m.Run(o.Generations).Part, nil
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
