package multilevel

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/kl"
	"repro/internal/partition"
)

func klInner(g *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error) {
	p, err := greedy.RegionGrow(g, parts)
	if err != nil {
		return nil, err
	}
	kl.Refine(g, p, nil, kl.Config{})
	return p, nil
}

func benchPartition(b *testing.B, n int, ref Refiner) {
	g := gen.Mesh(n, gen.SuiteSeed+int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, Config{Parts: 8, Seed: 1, Refiner: ref}, klInner); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartition10kKLFM(b *testing.B) { benchPartition(b, 10000, RefineKLFM) }
func BenchmarkPartition10kFM(b *testing.B)   { benchPartition(b, 10000, RefineFM) }

func BenchmarkBuildHierarchy10k(b *testing.B) {
	g := gen.Mesh(10000, gen.SuiteSeed+10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		BuildHierarchy(g, 64, 30, rng, 1)
	}
}

// benchUncoarsen isolates the uncoarsening phase (projection + boundary
// rebuilds + refinement) via Config.Stats and reports it as a custom metric,
// so the phase the parallel refactor targets is measurable per width:
//
//	go test ./internal/multilevel -bench 'Uncoarsen10k' -benchtime 5x
//
// compares uncoarsen-ns/op at Workers=1 vs Workers=4 (the partitions are
// bit-identical by contract; only the wall time may differ).
func benchUncoarsen(b *testing.B, n, workers int) {
	g := gen.Mesh(n, gen.SuiteSeed+int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	var project, refine time.Duration
	for i := 0; i < b.N; i++ {
		var st Stats
		if _, err := Partition(g, Config{Parts: 8, Seed: 1, Workers: workers, Stats: &st}, klInner); err != nil {
			b.Fatal(err)
		}
		project += st.Project
		refine += st.Refine
	}
	b.ReportMetric(float64((project+refine).Nanoseconds())/float64(b.N), "uncoarsen-ns/op")
	b.ReportMetric(float64(refine.Nanoseconds())/float64(b.N), "refine-ns/op")
}

func BenchmarkUncoarsen10kW1(b *testing.B) { benchUncoarsen(b, 10000, 1) }
func BenchmarkUncoarsen10kW2(b *testing.B) { benchUncoarsen(b, 10000, 2) }
func BenchmarkUncoarsen10kW4(b *testing.B) { benchUncoarsen(b, 10000, 4) }
