package dpga

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/partition"
)

func TestHypercubeNeighbors(t *testing.T) {
	// 4-d hypercube: every island has 4 neighbors, adjacency symmetric.
	n := 16
	for i := 0; i < n; i++ {
		nbrs := hypercubeNeighbors(i, n)
		if len(nbrs) != 4 {
			t.Fatalf("island %d has %d neighbors, want 4", i, len(nbrs))
		}
		for _, j := range nbrs {
			back := hypercubeNeighbors(j, n)
			found := false
			for _, k := range back {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("hypercube asymmetric: %d -> %d", i, j)
			}
		}
	}
}

func TestHypercubeValidate(t *testing.T) {
	g := gen.Mesh(40, 1)
	for _, n := range []int{1, 2, 16} {
		cfg := Config{Base: baseConfig(2), Islands: n, CrossoverFactory: uniform}
		if _, err := New(g, cfg); err != nil {
			t.Errorf("%d islands: %v", n, err)
		}
	}
	for _, n := range []int{-4, 3, 6, 12} {
		cfg := Config{Base: baseConfig(2), Islands: n, CrossoverFactory: uniform}
		if _, err := New(g, cfg); err == nil {
			t.Errorf("hypercube accepted %d islands", n)
		}
	}
}

func baseConfig(parts int) ga.Config {
	return ga.Config{
		Parts:   parts,
		PopSize: 64, // total across islands
		Seed:    21,
	}
}

// uniform is a CrossoverFactory for tests that need no per-island state.
func uniform(int) ga.Crossover { return ga.Uniform{} }

func TestNewValidation(t *testing.T) {
	g := gen.Mesh(40, 1)
	// No crossover anywhere.
	if _, err := New(g, Config{Base: baseConfig(2), Islands: 4}); err == nil {
		t.Error("config without crossover accepted")
	}
	// Too many islands for the population.
	if _, err := New(g, Config{Base: baseConfig(2), Islands: 64, CrossoverFactory: uniform}); err == nil {
		t.Error("1-individual islands accepted")
	}
	// Hypercube with non-power-of-two.
	if _, err := New(g, Config{Base: baseConfig(2), Islands: 6, CrossoverFactory: uniform}); err == nil {
		t.Error("6-island hypercube accepted")
	}
}

// A Base.Crossover would be one operator stepped by every island at once —
// a data race for operators with per-run state (DKNUX's estimate) — so New
// refuses it even alongside a factory.
func TestNewRejectsSharedCrossover(t *testing.T) {
	g := gen.Mesh(40, 1)
	est := partition.RandomBalanced(40, 2, rand.New(rand.NewSource(1)))
	for _, factory := range []func(int) ga.Crossover{nil, uniform} {
		cfg := Config{Base: baseConfig(2), Islands: 4, CrossoverFactory: factory}
		cfg.Base.Crossover = ga.NewDKNUX(est)
		if _, err := New(g, cfg); err == nil {
			t.Errorf("shared Base.Crossover accepted (factory set: %v)", factory != nil)
		}
	}
}

func TestPaperConfiguration(t *testing.T) {
	// Paper: total population 320, 16 subpopulations, 4-d hypercube.
	g := gen.Mesh(50, 2)
	cfg := Config{
		Base:             ga.Config{Parts: 4, Seed: 1},
		CrossoverFactory: uniform,
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Islands()) != 16 {
		t.Fatalf("%d islands", len(m.Islands()))
	}
	for _, e := range m.Islands() {
		if len(e.Population()) != 20 {
			t.Fatalf("island population %d, want 320/16 = 20", len(e.Population()))
		}
	}
}

func TestRunImprovesAndCounts(t *testing.T) {
	g := gen.Mesh(60, 3)
	cfg := Config{
		Base:              ga.Config{Parts: 4, PopSize: 64, Seed: 5},
		Islands:           4,
		MigrationInterval: 3,
		CrossoverFactory:  uniform,
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Best().Fitness
	m.Run(12)
	if m.Generation() != 12 {
		t.Errorf("generation = %d, want 12", m.Generation())
	}
	if m.Best().Fitness < first {
		t.Error("best regressed over run")
	}
}

// TestParallelMatchesSequential is the width table: for every island count,
// every width reproduces width 1 — the final best, the aggregate series and
// every island's Stats — because islands own their RNGs and operators,
// migrate at barriers, and evaluate purely.
func TestParallelMatchesSequential(t *testing.T) {
	g := gen.Mesh(50, 4)
	type result struct {
		best   []uint16
		cuts   []float64
		fits   []float64
		island []ga.Stats
	}
	run := func(islands, width int) result {
		m, err := New(g, Config{
			Base:              ga.Config{Parts: 4, PopSize: 64, HillClimb: true, EvalWorkers: width, Seed: 9},
			Islands:           islands,
			MigrationInterval: 3,
			CrossoverFactory: func(island int) ga.Crossover {
				rng := rand.New(rand.NewSource(int64(100 + island)))
				return ga.NewDKNUX(partition.RandomBalanced(g.NumNodes(), 4, rng))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := result{best: m.Run(10).Part.Assign, cuts: m.BestCutSeries(), fits: m.BestFitnessSeries()}
		for _, e := range m.Islands() {
			r.island = append(r.island, e.Stats())
		}
		return r
	}
	for _, islands := range []int{1, 4, 16} {
		ref := run(islands, 1)
		for _, width := range []int{2, 7} {
			if got := run(islands, width); !reflect.DeepEqual(ref, got) {
				t.Errorf("islands=%d: width %d diverged from width 1", islands, width)
			}
		}
	}
}

// One island is the single-population GA: the same engine, seed and
// operator as ga.New(base).Run, so the final assignment and the whole Stats
// trajectory must match bit for bit.
func TestOneIslandIsSinglePopulation(t *testing.T) {
	g := gen.PaperGraph(144)
	est := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(5)))
	for _, obj := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		base := ga.Config{Parts: 8, Objective: obj, PopSize: 48, HillClimb: true, Seed: 29}

		single := base
		single.Crossover = ga.NewDKNUX(est)
		e, err := ga.New(g, single)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Run(15)

		m, err := New(g, Config{
			Base:             base,
			Islands:          1,
			CrossoverFactory: func(int) ga.Crossover { return ga.NewDKNUX(est) },
		})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Run(15)
		if !reflect.DeepEqual(want.Part.Assign, got.Part.Assign) || want.Fitness != got.Fitness {
			t.Errorf("%s: one-island best differs from ga.New(base).Run", obj.FlagName())
		}
		if !reflect.DeepEqual(e.Stats(), m.Islands()[0].Stats()) {
			t.Errorf("%s: one-island Stats differ from ga.New(base).Run", obj.FlagName())
		}
	}
}

// A single island has nothing to migrate, so Stop is polled before every
// generation, as the single-population engine allows.
func TestOneIslandPollsStopEveryGeneration(t *testing.T) {
	g := gen.Mesh(40, 5)
	polls := 0
	m, err := New(g, Config{
		Base:              ga.Config{Parts: 2, PopSize: 16, Seed: 3},
		Islands:           1,
		MigrationInterval: 5,
		CrossoverFactory:  uniform,
		Stop:              func() bool { polls++; return polls > 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if m.Generation() != 3 {
		t.Errorf("stopped after %d generations, want 3", m.Generation())
	}
}

// Run leaves no goroutine behind: islands and offspring evaluation share
// internal/par, whose loops wait for their workers before returning.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := gen.Mesh(60, 6)
	before := runtime.NumGoroutine()
	m, err := New(g, Config{
		Base:             ga.Config{Parts: 4, PopSize: 64, Seed: 7},
		CrossoverFactory: uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(6)
	// A par worker exits just after signalling its WaitGroup; give the
	// scheduler a moment to retire it.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before New+Run, %d after", before, after)
	}
}

func TestMigrationSpreadsBest(t *testing.T) {
	// With migration, a strong seed given to island 0 should reach other
	// islands' populations. Use CrossoverFactory to give island 0 a seeded
	// engine is not possible (seeds are global), so instead verify that
	// after migration every island's best is at least as good as the
	// pre-migration global best would suggest: run with and without
	// migration and compare the aggregate.
	g := gen.PaperGraph(98)
	run := func(interval int) float64 {
		cfg := Config{
			Base:              ga.Config{Parts: 4, PopSize: 48, Seed: 31},
			Islands:           4,
			MigrationInterval: interval,
			CrossoverFactory:  uniform,
		}
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(30)
		// Return the mean of island bests: migration should pull laggards up.
		var sum float64
		for _, e := range m.Islands() {
			sum += e.Best().Fitness
		}
		return sum / float64(len(m.Islands()))
	}
	with := run(3)
	without := run(1000) // interval longer than the run: no migration
	if with < without {
		t.Errorf("migration hurt mean island best: %v < %v", with, without)
	}
}

func TestCrossoverFactoryPerIslandState(t *testing.T) {
	// DKNUX holds mutable per-run state; the factory must give each island
	// its own instance.
	g := gen.Mesh(40, 6)
	rng := rand.New(rand.NewSource(7))
	made := map[ga.Crossover]bool{}
	cfg := Config{
		Base:    ga.Config{Parts: 2, PopSize: 32, Seed: 3},
		Islands: 4,
		CrossoverFactory: func(island int) ga.Crossover {
			op := ga.NewDKNUX(partition.RandomBalanced(40, 2, rng))
			made[op] = true
			return op
		},
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(made) != 4 {
		t.Errorf("factory called %d times, want 4", len(made))
	}
	m.Run(6)
}

func TestBestCutSeries(t *testing.T) {
	g := gen.Mesh(50, 8)
	cfg := Config{
		Base:             ga.Config{Parts: 4, PopSize: 32, Seed: 11},
		Islands:          4,
		CrossoverFactory: uniform,
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	s := m.BestCutSeries()
	if len(s) != 11 { // gen 0 plus 10 steps
		t.Fatalf("cut series length %d, want 11", len(s))
	}
	fs := m.BestFitnessSeries()
	if len(fs) != 11 {
		t.Fatalf("fitness series length %d, want 11", len(fs))
	}
	// Fitness series is the max across islands of individually monotone
	// series, so it must be non-decreasing.
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] {
			t.Errorf("fitness series decreased at %d: %v -> %v", i, fs[i-1], fs[i])
		}
	}
}

// Property: hypercube adjacency is symmetric, in range, and irreflexive for
// every power-of-two island count.
func TestQuickHypercubeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		n := 1 << rand.New(rand.NewSource(seed)).Intn(6)
		for i := 0; i < n; i++ {
			for _, j := range hypercubeNeighbors(i, n) {
				if j < 0 || j >= n || j == i {
					return false
				}
				found := false
				for _, k := range hypercubeNeighbors(j, n) {
					if k == i {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
