package ga

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

// TestEvalWorkersBitIdentical is the regression test for the breed/evaluate
// split: evaluation is pure (only the serial breed phase consumes the RNG),
// so any EvalWorkers count must produce byte-identical trajectories and
// final partitions for an equal Config.Seed.
func TestEvalWorkersBitIdentical(t *testing.T) {
	g := gen.Mesh(120, 17)
	for _, obj := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		for _, hc := range []bool{false, true} {
			run := func(workers int) (Stats, []uint16) {
				e, err := New(g, Config{
					Parts:       4,
					Objective:   obj,
					PopSize:     48,
					Crossover:   Uniform{},
					HillClimb:   hc,
					EvalWorkers: workers,
					Seed:        23,
				})
				if err != nil {
					t.Fatal(err)
				}
				best := e.Run(12)
				return e.Stats(), best.Part.Assign
			}
			s1, p1 := run(1)
			for _, workers := range []int{2, 7} {
				sN, pN := run(workers)
				if !reflect.DeepEqual(s1, sN) {
					t.Errorf("obj=%v hillclimb=%v: Stats differ between EvalWorkers=1 and %d", obj, hc, workers)
				}
				if !reflect.DeepEqual(p1, pN) {
					t.Errorf("obj=%v hillclimb=%v: best partition differs between EvalWorkers=1 and %d", obj, hc, workers)
				}
			}
		}
	}
}

// The same guarantee must hold through the DKNUX estimate-update feedback
// loop: the estimate is replaced only during the serial bookkeeping between
// phases, never concurrently.
func TestEvalWorkersBitIdenticalDKNUX(t *testing.T) {
	g := gen.PaperGraph(144)
	run := func(workers int) []uint16 {
		est := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(5)))
		e, err := New(g, Config{
			Parts:       8,
			PopSize:     64,
			Crossover:   NewDKNUX(est),
			HillClimb:   true,
			EvalWorkers: workers,
			Seed:        29,
		})
		if err != nil {
			t.Fatal(err)
		}
		best := e.Run(15)
		return best.Part.Assign
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0) + 3)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("DKNUX run diverged between serial and parallel evaluation")
	}
}

// BenchmarkStepParallel compares serial and parallel Step on the paper's
// 320-individual population over a ~1k-node mesh. The breed phase
// (selection, crossover, mutation) is serial in both; the parallel variant
// fans the per-offspring evaluation and hill climbing out over all cores,
// so on an N-core host the speedup approaches the evaluate phase's share of
// the step.
func BenchmarkStepParallel(b *testing.B) {
	g := gen.Mesh(1024, 42)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(g, Config{
				Parts:       8,
				PopSize:     320,
				Crossover:   Uniform{},
				HillClimb:   true,
				EvalWorkers: bc.workers,
				Seed:        7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkStepDKNUXParallel is the same comparison under the paper's
// default operator, whose neighborhood-weighted recombination makes the
// serial breed phase heavier.
func BenchmarkStepDKNUXParallel(b *testing.B) {
	g := gen.Mesh(1024, 42)
	est := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(3)))
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(g, Config{
				Parts:       8,
				PopSize:     320,
				Crossover:   NewDKNUX(est),
				HillClimb:   true,
				EvalWorkers: bc.workers,
				Seed:        7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
