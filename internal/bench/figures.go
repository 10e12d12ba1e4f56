package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/ibp"
	"repro/internal/partition"
	"repro/internal/stats"
)

// Figure1 renders the paper's Figure 1: row-major and shuffled row-major
// indexing of an 8x8 grid, side by side.
func Figure1() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: (a) Row-Major and (b) Shuffled Row-Major Indexing for an 8x8 image\n")
	for y := uint64(0); y < 8; y++ {
		for x := uint64(0); x < 8; x++ {
			fmt.Fprintf(&sb, "%02d ", ibp.CellIndex(ibp.RowMajor, x, y, 3, 3))
		}
		sb.WriteString("   ")
		for x := uint64(0); x < 8; x++ {
			fmt.Fprintf(&sb, "%02d ", ibp.CellIndex(ibp.ShuffledRowMajor, x, y, 3, 3))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Convergence regenerates the paper's convergence comparison (its figures
// average 5 runs): best cut size versus generation for 2-point, uniform,
// KNUX, and DKNUX crossover on the 167-node mesh split into 8 parts. KNUX
// uses the IBP solution as its (static) estimate; DKNUX starts there and
// tracks the best individual. This exhibits the paper's "orders of
// magnitude" convergence claim.
func Convergence(opt Options) Figure {
	g := gen.PaperGraph(167)
	const parts = 8
	pop := opt.TotalPop
	if opt.Islands > 1 {
		pop = opt.TotalPop / opt.Islands * opt.Islands // keep divisible
	}
	ibpSeed := ibpPartition(g, parts)

	operators := []struct {
		label string
		mk    func() ga.Crossover
	}{
		{"2-point", func() ga.Crossover { return ga.KPoint{K: 2} }},
		{"uniform", func() ga.Crossover { return ga.Uniform{} }},
		{"KNUX", func() ga.Crossover { return ga.NewKNUX(ibpSeed) }},
		{"DKNUX", func() ga.Crossover { return ga.NewDKNUX(ibpSeed) }},
	}

	fig := Figure{
		ID:     "Figure C",
		Title:  "Convergence of crossover operators (167 nodes, 8 parts, mean of runs)",
		XLabel: "generation",
		YLabel: "best cut size",
	}
	for _, op := range operators {
		var runs [][]float64
		for r := 0; r < opt.Runs; r++ {
			e, err := ga.New(g, ga.Config{
				Parts:       parts,
				PopSize:     pop,
				Crossover:   op.mk(),
				EvalWorkers: opt.EvalWorkers,
				Seed:        opt.Seed + int64(r)*31,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			e.Run(opt.Generations)
			runs = append(runs, e.Stats().BestCut)
		}
		mean := stats.MeanSeries(runs)
		s := Series{Label: op.label}
		stride := len(mean) / 20
		if stride < 1 {
			stride = 1
		}
		down := stats.Downsample(mean, stride)
		for i, v := range down {
			x := float64(i * stride)
			if i == len(down)-1 {
				x = float64(len(mean) - 1)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, v)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Speedup regenerates the paper's DPGA scaling claim (§5: "near-linear
// speedups"): wall-clock time and solution quality versus island count at
// a fixed total population and generation budget. On a single-core host the
// time column shows overhead rather than speedup; the quality column shows
// the island model's effect on search.
func Speedup(opt Options) Figure {
	g := gen.PaperGraph(279)
	const parts = 8
	fig := Figure{
		ID:     "Figure S",
		Title:  "DPGA islands: wall-clock seconds and best cut (279 nodes, 8 parts)",
		XLabel: "islands",
		YLabel: "seconds (series time) / cut (series cut)",
	}
	ibpSeed := ibpPartition(g, parts)
	seeds := []*partition.Partition{ibpSeed}
	timeS := Series{Label: "time"}
	cutS := Series{Label: "cut"}
	for _, islands := range []int{1, 2, 4, 8, 16} {
		if opt.TotalPop/islands < 4 { // need room for elites plus offspring
			continue
		}
		start := time.Now()
		m, err := dpga.New(g, dpga.Config{
			Base: ga.Config{
				Parts:       parts,
				PopSize:     opt.TotalPop,
				Seeds:       seeds,
				EvalWorkers: opt.EvalWorkers,
				Seed:        opt.Seed,
			},
			Islands: islands,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		cut := m.Run(opt.Generations).Part.CutSize(g)
		elapsed := time.Since(start).Seconds()
		timeS.X = append(timeS.X, float64(islands))
		timeS.Y = append(timeS.Y, elapsed)
		cutS.X = append(cutS.X, float64(islands))
		cutS.Y = append(cutS.Y, cut)
	}
	fig.Series = []Series{timeS, cutS}
	return fig
}

// IncrementalConvergence contrasts the two ways to repartition a grown
// graph (183+30 case, 4 parts): a GA seeded with the carried-over partition
// starts at near-final quality and repairs locally, while a GA from a
// random population spends its whole budget rediscovering structure. This
// figure makes the case for the paper's incremental seeding (§3.5) beyond
// the final-cut numbers of Tables 3 and 6.
func IncrementalConvergence(opt Options) Figure {
	base, grown := gen.IncrementalPair(gen.IncrementalCase{Base: 183, Added: 30})
	const parts = 4
	old := rsbPartition(base, parts, opt.Seed)

	fig := Figure{
		ID:     "Figure I",
		Title:  "Incremental seeding vs restart (183+30 nodes, 4 parts, mean of runs)",
		XLabel: "generation",
		YLabel: "best cut size",
	}
	variants := []struct {
		label  string
		seeded bool
	}{
		{"seeded-with-old-partition", true},
		{"random-restart", false},
	}
	for _, v := range variants {
		var runs [][]float64
		for r := 0; r < opt.Runs; r++ {
			rng := rand.New(rand.NewSource(opt.Seed + int64(r)*17))
			var seeds []*partition.Partition
			est := partition.RandomBalanced(grown.NumNodes(), parts, rng)
			if v.seeded {
				seeds = append(seeds, partition.ExtendMajorityNeighbor(old, grown))
				for i := 0; i < 4; i++ {
					seeds = append(seeds, partition.ExtendRandomBalanced(old, grown, rng))
				}
				est = seeds[0]
			}
			e, err := ga.New(grown, ga.Config{
				Parts:       parts,
				PopSize:     opt.TotalPop,
				Seeds:       seeds,
				Crossover:   ga.NewDKNUX(est),
				EvalWorkers: opt.EvalWorkers,
				Seed:        opt.Seed + int64(r)*29,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			e.Run(opt.Generations)
			runs = append(runs, e.Stats().BestCut)
		}
		mean := stats.MeanSeries(runs)
		stride := len(mean) / 20
		if stride < 1 {
			stride = 1
		}
		down := stats.Downsample(mean, stride)
		s := Series{Label: v.label}
		for i, y := range down {
			x := float64(i * stride)
			if i == len(down)-1 {
				x = float64(len(mean) - 1)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// seedsForEstimate exposes the IBP seed used by figure experiments; kept as
// a tiny helper so tests can assert the estimate choice.
func seedsForEstimate(n, parts int) *partition.Partition {
	return ibpPartition(gen.PaperGraph(n), parts)
}
