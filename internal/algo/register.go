package algo

import (
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/dpga"
	"repro/internal/fm"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/ibp"
	"repro/internal/kl"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/rcb"
	"repro/internal/spectral"
)

func init() {
	// Genetic-algorithm family (the paper's subject).
	for _, op := range []struct{ name, desc string }{
		{"dknux", "distributed GA with the paper's DKNUX crossover (best overall in the paper)"},
		{"knux", "GA with knowledge-based nonuniform crossover"},
		{"ux", "GA with uniform crossover"},
		{"2pt", "GA with two-point crossover"},
	} {
		op := op
		Register(New(Info{
			Name: op.name, Description: op.desc, Stochastic: true,
			Objectives: []partition.Objective{partition.WorstCut},
		},
			func(g *graph.Graph, opt Options) (*partition.Partition, error) {
				return runGA(g, op.name, opt)
			}))
	}

	Register(New(Info{
		Name:            "rsb",
		Description:     "recursive spectral bisection (Fiedler-vector median splits)",
		PowerOfTwoParts: true,
		Stochastic:      true, // Lanczos starts from a random vector
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return spectral.Partition(g, opt.Parts, rand.New(rand.NewSource(opt.Seed)), opt.LanczosIter)
	}))

	Register(New(Info{
		Name:        "ibp",
		Description: "index-based partitioning over the shuffled row-major (Morton) order",
		NeedsCoords: true,
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return ibp.Partition(g, opt.Parts, ibp.ShuffledRowMajor)
	}))

	Register(New(Info{
		Name:            "rcb",
		Description:     "recursive coordinate bisection",
		NeedsCoords:     true,
		PowerOfTwoParts: true,
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return rcb.Partition(g, opt.Parts, rcb.Coordinate)
	}))

	Register(New(Info{
		Name:            "rgb",
		Description:     "recursive graph (BFS-order) bisection",
		PowerOfTwoParts: true,
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return rcb.Partition(g, opt.Parts, rcb.GraphBFS)
	}))

	Register(New(Info{
		Name:        "kl",
		Description: "flat Kernighan–Lin: region-growing start, colored boundary hill climbing to convergence",
		Objectives:  []partition.Objective{partition.WorstCut, partition.CommVolume},
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		p, err := greedy.RegionGrow(g, opt.Parts)
		if err != nil {
			return nil, err
		}
		kl.Refine(g, p, nil, kl.Config{Objective: opt.Objective, MaxPasses: opt.RefinePasses, Workers: opt.Workers, Stop: opt.stop()})
		return p, nil
	}))

	Register(New(Info{
		Name:        "fm",
		Description: "flat Fiduccia–Mattheyses: region-growing start, gain-heap passes",
		Objectives:  []partition.Objective{partition.WorstCut},
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		p, err := greedy.RegionGrow(g, opt.Parts)
		if err != nil {
			return nil, err
		}
		fm.Refine(g, p, nil, fm.Config{MaxPasses: opt.RefinePasses, Workers: opt.Workers, Objective: opt.Objective, Stop: opt.stop()})
		return p, nil
	}))

	Register(New(Info{
		Name:        "anneal",
		Description: "simulated annealing over single-node moves (geometric cooling)",
		Stochastic:  true,
		Objectives:  []partition.Objective{partition.WorstCut},
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return anneal.Partition(g, anneal.Config{
			Parts:     opt.Parts,
			Objective: opt.Objective,
			Seed:      opt.Seed,
		})
	}))

	Register(New(Info{
		Name:        "grow",
		Description: "greedy BFS region growing (deterministic baseline and common seed)",
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return greedy.RegionGrow(g, opt.Parts)
	}))

	Register(New(Info{
		Name:        "scattered",
		Description: "round-robin scattered decomposition (cut-oblivious strawman)",
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return greedy.Scattered(g.NumNodes(), opt.Parts)
	}))

	Register(New(Info{
		Name:        "strip",
		Description: "index-order strip decomposition",
		NeedsCoords: true, // slices along the wider coordinate axis
	}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return greedy.StripIndex(g, opt.Parts)
	}))

	// Multilevel pipeline: coarsen by heavy-edge matching, solve the
	// coarsest graph with the named inner algorithm, project back up with
	// per-level refinement. "multilevel" is the workhorse configuration
	// (KL inner, KL boundary refinement); the suffixed variants swap the
	// inner solver and, for -fm, the refiner.
	// All declare maxcut; the KL-refined pipelines additionally declare
	// commvol (the pure-FM pipeline cannot — fm has no commvol support).
	registerMultilevel("multilevel", "kl", multilevel.RefineKLFM, Info{
		Description: "multilevel: heavy-edge coarsening, KL inner solver, boundary-KL/FM uncoarsening (same as multilevel-kl)",
		Objectives:  []partition.Objective{partition.WorstCut, partition.CommVolume},
	})
	registerMultilevel("multilevel-kl", "kl", multilevel.RefineKLFM, Info{
		Description: "multilevel with flat-KL inner solver and boundary-KL/FM refinement",
		Objectives:  []partition.Objective{partition.WorstCut, partition.CommVolume},
	})
	registerMultilevel("multilevel-fm", "fm", multilevel.RefineFM, Info{
		Description: "multilevel with FM inner solver and pure-FM refinement (plus rebalancing)",
		Objectives:  []partition.Objective{partition.WorstCut},
	})
	registerMultilevel("multilevel-rsb", "rsb", multilevel.RefineKLFM, Info{
		Description:     "multilevel with spectral (RSB) inner solver and boundary-KL/FM refinement",
		PowerOfTwoParts: true,
		Stochastic:      true,
		Objectives:      []partition.Objective{partition.WorstCut, partition.CommVolume},
	})
	registerMultilevel("multilevel-ga", "dknux", multilevel.RefineKLFM, Info{
		Description: "multilevel with the paper's DKNUX GA as inner solver and boundary-KL/FM refinement",
		Stochastic:  true,
		Objectives:  []partition.Objective{partition.WorstCut, partition.CommVolume},
	})
}

// registerMultilevel registers a multilevel pipeline whose coarsest graph is
// solved by the registered algorithm innerName. The inner algorithm is
// resolved at run time, so registration order does not matter.
func registerMultilevel(name, innerName string, refiner multilevel.Refiner, info Info) {
	info.Name = name
	info.Stochastic = true // heavy-edge matching visits nodes in seeded random order
	Register(New(info, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		inner := func(cg *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error) {
			// The coarsest graph is small; multilevel-ga's reduced GA
			// budget is ample there unless the caller asked for a specific
			// one. The other pipelines have no budget, and their options
			// pass unchanged.
			io := gaBudgets[name].fill(opt)
			io.Parts = parts
			io.Seed = rng.Int63()
			// The inner solver may honor fewer objectives than the pipeline
			// (e.g. the DKNUX GA has no commvol fitness): fall back to the
			// universal TotalCut for the coarse solve and let the declared
			// uncoarsening refiners drive the requested objective.
			if ip, err := Get(innerName); err == nil && !ip.Info().SupportsObjective(io.Objective) {
				io.Objective = partition.TotalCut
			}
			return Run(cg, innerName, io)
		}
		return multilevel.Partition(g, multilevel.Config{
			Parts:        opt.Parts,
			CoarsestSize: opt.CoarsestSize,
			RefinePasses: opt.RefinePasses,
			Refiner:      refiner,
			Workers:      opt.Workers,
			Objective:    opt.Objective,
			Seed:         opt.Seed,
			Stats:        opt.MultilevelStats,
			Stop:         opt.stop(),
		}, inner)
	}))
}

// runGA runs the paper's GA family on the distributed island model (one
// island is the single-population GA). When the graph has coordinates the
// population is seeded with an IBP partition (the paper's recommended
// practice); otherwise it starts from random balanced partitions.
func runGA(g *graph.Graph, operator string, opt Options) (*partition.Partition, error) {
	opt = gaBudgets[operator].fill(opt)
	var seeds []*partition.Partition
	if g.HasCoords() {
		if s, err := ibp.Partition(g, opt.Parts, ibp.ShuffledRowMajor); err == nil {
			seeds = append(seeds, s)
		}
	}
	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:       opt.Parts,
			Objective:   opt.Objective,
			PopSize:     opt.PopSize,
			Seeds:       seeds,
			EvalWorkers: opt.EvalWorkers,
			Seed:        opt.Seed,
		},
		Islands:  opt.Islands,
		Operator: operator,
		Stop:     opt.stop(),
	})
	if err != nil {
		return nil, err
	}
	return m.Run(opt.Generations).Part, nil
}
