// Benchmarks regenerating every table and figure of the paper (see the
// experiment index in README.md), plus ablations of the design decisions
// and micro-benchmarks of the hot paths.
//
// Benchmarks run the experiments at reduced budget so "go test -bench=."
// terminates in minutes; cmd/experiments runs the same code at paper scale.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/ibp"
	"repro/internal/kl"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/rcb"
	"repro/internal/spectral"
)

// benchOptions is the budget used by the table benchmarks: the full
// experiment pipeline at a fraction of the paper's generations.
func benchOptions() bench.Options {
	return bench.Options{
		Runs:        1,
		Generations: 20,
		TotalPop:    64,
		Islands:     4,
		Seed:        gen.SuiteSeed,
	}
}

func BenchmarkTable1(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table1(opt)
	}
}

func BenchmarkTable2(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table2(opt)
	}
}

func BenchmarkTable3(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table3(opt)
	}
}

func BenchmarkTable4(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table4(opt)
	}
}

func BenchmarkTable5(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table5(opt)
	}
}

func BenchmarkTable6(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Table6(opt)
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Figure1() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkConvergence(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Convergence(opt)
	}
}

func BenchmarkSpeedup(b *testing.B) {
	opt := benchOptions()
	opt.Generations = 10
	for i := 0; i < b.N; i++ {
		bench.Speedup(opt)
	}
}

// --- Ablations ---

// BenchmarkAblationHillClimb measures the optional §3.6 hill-climbing step:
// a fixed-budget DKNUX run on the 144-node mesh, reporting the final cut.
func BenchmarkAblationHillClimb(b *testing.B) {
	g := gen.PaperGraph(144)
	seed := partition.RandomBalanced(g.NumNodes(), 4, rand.New(rand.NewSource(1)))
	for _, hc := range []bool{false, true} {
		name := "off"
		if hc {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var finalCut float64
			for i := 0; i < b.N; i++ {
				e, err := ga.New(g, ga.Config{Parts: 4, PopSize: 64, Crossover: ga.NewDKNUX(seed), HillClimb: hc, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				finalCut = e.Run(30).Part.CutSize(g)
			}
			b.ReportMetric(finalCut, "final-cut")
		})
	}
}

// BenchmarkAblationEstimate compares a static estimate (KNUX) against the
// dynamically updated one (DKNUX) at equal budget: the paper's central
// static-vs-dynamic design choice.
func BenchmarkAblationEstimate(b *testing.B) {
	g := gen.PaperGraph(144)
	rng := rand.New(rand.NewSource(2))
	seed := partition.RandomBalanced(g.NumNodes(), 4, rng)
	for _, dynamic := range []bool{false, true} {
		name := "static-KNUX"
		if dynamic {
			name = "dynamic-DKNUX"
		}
		b.Run(name, func(b *testing.B) {
			var finalCut float64
			for i := 0; i < b.N; i++ {
				var op ga.Crossover
				if dynamic {
					op = ga.NewDKNUX(seed)
				} else {
					op = ga.NewKNUX(seed)
				}
				e, err := ga.New(g, ga.Config{Parts: 4, PopSize: 64, Crossover: op, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				finalCut = e.Run(30).Part.CutSize(g)
			}
			b.ReportMetric(finalCut, "final-cut")
		})
	}
}

// BenchmarkAblationMultilevel compares flat GA against contraction+GA on a
// mesh far larger than the paper's (its §5: "a prior graph contraction step
// would allow these techniques to be applied to graphs much larger").
func BenchmarkAblationMultilevel(b *testing.B) {
	g := gen.Mesh(1000, 77)
	gaInner := func(cg *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error) {
		est := partition.RandomBalanced(cg.NumNodes(), parts, rng)
		e, err := ga.New(cg, ga.Config{Parts: parts, PopSize: 48, Crossover: ga.NewDKNUX(est), Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		return e.Run(30).Part, nil
	}
	b.Run("flat-GA", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			p, err := gaInner(g, 8, rng)
			if err != nil {
				b.Fatal(err)
			}
			cut = p.CutSize(g)
		}
		b.ReportMetric(cut, "final-cut")
	})
	b.Run("multilevel-GA", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			p, err := multilevel.Partition(g, multilevel.Config{Parts: 8, Seed: int64(i)}, gaInner)
			if err != nil {
				b.Fatal(err)
			}
			cut = p.CutSize(g)
		}
		b.ReportMetric(cut, "final-cut")
	})
}

// BenchmarkParamSweep regenerates the pc/pm sensitivity figure.
func BenchmarkParamSweep(b *testing.B) {
	opt := benchOptions()
	opt.Generations = 10
	for i := 0; i < b.N; i++ {
		bench.ParamSweep(opt)
	}
}

// BenchmarkBaselines times every deterministic baseline on the largest suite
// mesh and reports its cut as a metric, anchoring the tables' GA numbers.
func BenchmarkBaselines(b *testing.B) {
	g := gen.PaperGraph(309)
	const parts = 8
	run := func(name string, fn func() (*partition.Partition, error)) {
		b.Run(name, func(b *testing.B) {
			var cut float64
			for i := 0; i < b.N; i++ {
				p, err := fn()
				if err != nil {
					b.Fatal(err)
				}
				cut = p.CutSize(g)
			}
			b.ReportMetric(cut, "cut")
		})
	}
	run("rsb", func() (*partition.Partition, error) {
		return spectral.Partition(g, parts, rand.New(rand.NewSource(1)), 0)
	})
	run("ibp-shuffled", func() (*partition.Partition, error) {
		return ibp.Partition(g, parts, ibp.ShuffledRowMajor)
	})
	run("ibp-rowmajor", func() (*partition.Partition, error) {
		return ibp.Partition(g, parts, ibp.RowMajor)
	})
	run("rcb", func() (*partition.Partition, error) {
		return rcb.Partition(g, parts, rcb.Coordinate)
	})
	run("rgb", func() (*partition.Partition, error) {
		return rcb.Partition(g, parts, rcb.GraphBFS)
	})
	run("region-grow", func() (*partition.Partition, error) {
		return greedy.RegionGrow(g, parts)
	})
	run("scattered", func() (*partition.Partition, error) {
		return greedy.Scattered(g.NumNodes(), parts)
	})
	run("strip", func() (*partition.Partition, error) {
		return greedy.StripIndex(g, parts)
	})
}

// BenchmarkNonConvexDomains compares geometric vs graph-aware partitioners
// on the annulus domain, where geometric methods pay for connecting points
// across the hole (extension beyond the paper; see internal/gen/domains.go).
func BenchmarkNonConvexDomains(b *testing.B) {
	g := gen.DomainMesh(gen.Annulus{}, 300, 5)
	const parts = 8
	run := func(name string, fn func(i int) (*partition.Partition, error)) {
		b.Run(name, func(b *testing.B) {
			var cut float64
			for i := 0; i < b.N; i++ {
				p, err := fn(i)
				if err != nil {
					b.Fatal(err)
				}
				cut = p.CutSize(g)
			}
			b.ReportMetric(cut, "cut")
		})
	}
	run("rcb", func(i int) (*partition.Partition, error) {
		return rcb.Partition(g, parts, rcb.Coordinate)
	})
	run("ibp", func(i int) (*partition.Partition, error) {
		return ibp.Partition(g, parts, ibp.ShuffledRowMajor)
	})
	run("rsb", func(i int) (*partition.Partition, error) {
		return spectral.Partition(g, parts, rand.New(rand.NewSource(int64(i))), 0)
	})
	run("dknux", func(i int) (*partition.Partition, error) {
		seed, err := ibp.Partition(g, parts, ibp.ShuffledRowMajor)
		if err != nil {
			return nil, err
		}
		e, err := ga.New(g, ga.Config{
			Parts: parts, PopSize: 64,
			Seeds:     []*partition.Partition{seed},
			Crossover: ga.NewDKNUX(seed),
			HillClimb: true,
			Seed:      int64(i),
		})
		if err != nil {
			return nil, err
		}
		return e.Run(30).Part, nil
	})
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkFitnessTotalCut(b *testing.B) {
	g := gen.PaperGraph(309)
	rng := rand.New(rand.NewSource(1))
	p := partition.RandomBalanced(g.NumNodes(), 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fitness(g, partition.TotalCut)
	}
}

func BenchmarkFitnessWorstCut(b *testing.B) {
	g := gen.PaperGraph(309)
	rng := rand.New(rand.NewSource(1))
	p := partition.RandomBalanced(g.NumNodes(), 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fitness(g, partition.WorstCut)
	}
}

func BenchmarkCrossoverOperators(b *testing.B) {
	g := gen.PaperGraph(309)
	rng := rand.New(rand.NewSource(1))
	pa := ga.NewIndividual(g, partition.RandomBalanced(g.NumNodes(), 8, rng), partition.TotalCut)
	pb := ga.NewIndividual(g, partition.RandomBalanced(g.NumNodes(), 8, rng), partition.TotalCut)
	est := partition.RandomBalanced(g.NumNodes(), 8, rng)
	for _, op := range []ga.Crossover{ga.KPoint{K: 2}, ga.Uniform{}, ga.NewKNUX(est), ga.NewDKNUX(est)} {
		b.Run(op.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.Cross(g, pa, pb, rng)
			}
		})
	}
}

func BenchmarkHillClimbPass(b *testing.B) {
	g := gen.PaperGraph(309)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := partition.RandomBalanced(g.NumNodes(), 8, rng)
		b.StartTimer()
		kl.HillClimbEval(g, p, partition.TotalCut, 1, nil)
	}
}

func BenchmarkRSB(b *testing.B) {
	g := gen.PaperGraph(309)
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Partition(g, 8, rand.New(rand.NewSource(int64(i))), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIBP(b *testing.B) {
	g := gen.PaperGraph(309)
	for i := 0; i < b.N; i++ {
		if _, err := ibp.Partition(g, 8, ibp.ShuffledRowMajor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoarsen(b *testing.B) {
	g := gen.Mesh(1000, 3)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multilevel.Coarsen(g, rng, 1)
	}
}

func BenchmarkMeshGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.Mesh(309, int64(i))
	}
}
