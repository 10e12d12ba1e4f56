package dpga

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
		cfg := Config{Base: baseConfig(2), Islands: n, Operator: "ux"}
		if _, err := New(g, cfg); err != nil {
			t.Errorf("%d islands: %v", n, err)
		}
	}
	for _, n := range []int{-4, 3, 6, 12} {
		cfg := Config{Base: baseConfig(2), Islands: n, Operator: "ux"}
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

func TestNewValidation(t *testing.T) {
	g := gen.Mesh(40, 1)
	// An operator outside the registry's GA family.
	for _, op := range []string{"DKNUX", "1pt", "uniform"} {
		if _, err := New(g, Config{Base: baseConfig(2), Islands: 4, Operator: op}); err == nil {
			t.Errorf("operator %q accepted", op)
		}
	}
	// No parts to draw a random estimate over.
	if _, err := New(g, Config{Base: baseConfig(0), Islands: 4}); err == nil {
		t.Error("zero parts accepted")
	}
	// Too many islands for the population.
	if _, err := New(g, Config{Base: baseConfig(2), Islands: 64, Operator: "ux"}); err == nil {
		t.Error("1-individual islands accepted")
	}
	// Hypercube with non-power-of-two.
	if _, err := New(g, Config{Base: baseConfig(2), Islands: 6, Operator: "ux"}); err == nil {
		t.Error("6-island hypercube accepted")
	}
}

// A Base.Crossover would be one operator stepped by every island at once —
// a data race for operators with per-run state (DKNUX's estimate) — so New
// refuses it whatever the Operator.
func TestNewRejectsSharedCrossover(t *testing.T) {
	g := gen.Mesh(40, 1)
	est := partition.RandomBalanced(40, 2, rand.New(rand.NewSource(1)))
	for _, op := range []string{"", "ux"} {
		cfg := Config{Base: baseConfig(2), Islands: 4, Operator: op}
		cfg.Base.Crossover = ga.NewDKNUX(est)
		if _, err := New(g, cfg); err == nil {
			t.Errorf("shared Base.Crossover accepted (operator %q)", op)
		}
	}
}

func TestPaperConfiguration(t *testing.T) {
	// Paper: total population 320, 16 subpopulations, 4-d hypercube.
	g := gen.Mesh(50, 2)
	cfg := Config{
		Base:     ga.Config{Parts: 4, Seed: 1},
		Operator: "ux",
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.islands) != 16 {
		t.Fatalf("%d islands", len(m.islands))
	}
	for _, e := range m.islands {
		if len(e.Population()) != 20 {
			t.Fatalf("island population %d, want 320/16 = 20", len(e.Population()))
		}
	}
}

func TestRunImprovesAndCounts(t *testing.T) {
	g := gen.Mesh(60, 3)
	cfg := Config{
		Base:     ga.Config{Parts: 4, PopSize: 64, Seed: 5},
		Islands:  4,
		Operator: "ux",
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Best().Fitness
	m.Run(12)
	for i, e := range m.islands {
		// One Stats entry per generation, the initial population included.
		if n := len(e.Stats().BestFitness) - 1; n != 12 {
			t.Errorf("island %d stepped %d generations, want 12", i, n)
		}
	}
	if m.Best().Fitness < first {
		t.Error("best regressed over run")
	}
}

// TestParallelMatchesSequential is the width table: for every island count,
// every width reproduces width 1 — the final best and every island's Stats —
// because islands own their RNGs and operators, migrate at barriers, and
// evaluate purely. Without seeds each island's DKNUX starts from its own
// random estimate.
func TestParallelMatchesSequential(t *testing.T) {
	g := gen.Mesh(50, 4)
	type result struct {
		best   []uint16
		island []ga.Stats
	}
	run := func(islands, width int) result {
		m, err := New(g, Config{
			Base:    ga.Config{Parts: 4, PopSize: 64, HillClimb: true, EvalWorkers: width, Seed: 9},
			Islands: islands,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := result{best: m.Run(10).Part.Assign}
		for _, e := range m.islands {
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
// trajectory must match bit for bit. Without seeds, island 0's DKNUX
// estimate is the random balanced partition drawn from Base.Seed.
func TestOneIslandIsSinglePopulation(t *testing.T) {
	g := gen.PaperGraph(144)
	est := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(29)))
	for _, obj := range []partition.Objective{partition.TotalCut, partition.WorstCut} {
		base := ga.Config{Parts: 8, Objective: obj, PopSize: 48, HillClimb: true, Seed: 29}

		single := base
		single.Crossover = ga.NewDKNUX(est)
		e, err := ga.New(g, single)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Run(15)

		m, err := New(g, Config{Base: base, Islands: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Run(15)
		if !reflect.DeepEqual(want.Part.Assign, got.Part.Assign) || want.Fitness != got.Fitness {
			t.Errorf("%s: one-island best differs from ga.New(base).Run", obj.FlagName())
		}
		if !reflect.DeepEqual(e.Stats(), m.islands[0].Stats()) {
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
		Base:     ga.Config{Parts: 2, PopSize: 16, Seed: 3},
		Islands:  1,
		Operator: "ux",
		Stop:     func() bool { polls++; return polls > 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20)
	if n := len(m.islands[0].Stats().BestFitness) - 1; n != 3 {
		t.Errorf("stopped after %d generations, want 3", n)
	}
}

// Run leaves no goroutine behind: islands and offspring evaluation share
// internal/par, whose loops wait for their workers before returning.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := gen.Mesh(60, 6)
	before := runtime.NumGoroutine()
	m, err := New(g, Config{
		Base:     ga.Config{Parts: 4, PopSize: 64, Seed: 7},
		Operator: "ux",
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

// One exchange leaves every island holding an individual at least as fit as
// each hypercube neighbor's fittest before it: a neighbor's migrant either
// enters the population or is no fitter than its worst member.
func TestMigrationSpreadsBest(t *testing.T) {
	g := gen.PaperGraph(98)
	m, err := New(g, Config{
		Base:     ga.Config{Parts: 4, PopSize: 48, Seed: 31},
		Islands:  4,
		Operator: "ux",
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(3) // shorter than the migration interval: no exchange yet
	fittest := func(e *ga.Engine) float64 {
		best := e.Population()[0].Fitness
		for _, ind := range e.Population() {
			best = max(best, ind.Fitness)
		}
		return best
	}
	before := make([]float64, len(m.islands))
	for i, e := range m.islands {
		before[i] = fittest(e)
	}
	if slices.Min(before) == slices.Max(before) {
		t.Fatalf("islands already agree before migration (%v); the check would be vacuous", before)
	}
	m.migrate()
	for i, e := range m.islands {
		after := fittest(e)
		for _, j := range hypercubeNeighbors(i, len(m.islands)) {
			if after < before[j] {
				t.Errorf("island %d fittest %v after migration, below neighbor %d's %v", i, after, j, before[j])
			}
		}
	}
}

// DKNUX holds mutable per-run state, so every island gets its own operator
// and its own copy of its estimate: the island's seed, dealt round-robin,
// or without seeds the random balanced partition drawn from Base.Seed plus
// the island index.
func TestCrossoverPerIslandState(t *testing.T) {
	g := gen.Mesh(40, 6)
	rng := rand.New(rand.NewSource(7))
	seeds := []*partition.Partition{partition.RandomBalanced(40, 2, rng), partition.RandomBalanced(40, 2, rng)}
	type estimator interface {
		ga.Crossover
		Estimate() *partition.Partition
	}
	for _, op := range []string{"", "dknux", "knux"} {
		for _, seeded := range []bool{false, true} {
			cfg := Config{Base: ga.Config{Parts: 2, Seed: 3}, Operator: op}
			if seeded {
				cfg.Base.Seeds = seeds
			}
			made := map[*partition.Partition]bool{}
			for i := 0; i < 4; i++ {
				x, ok := cfg.crossover(g, i).(estimator)
				if !ok || (op == "knux") != (x.Name() == "KNUX") {
					t.Fatalf("operator %q island %d: got %T", op, i, x)
				}
				est := x.Estimate()
				want := partition.RandomBalanced(40, 2, rand.New(rand.NewSource(3+int64(i))))
				if seeded {
					want = seeds[i%len(seeds)]
				}
				if !slices.Equal(est.Assign, want.Assign) {
					t.Errorf("operator %q seeded=%v island %d: estimate does not follow the rule", op, seeded, i)
				}
				if est == want || made[est] {
					t.Errorf("operator %q seeded=%v island %d: estimate is shared", op, seeded, i)
				}
				made[est] = true
			}
		}
	}
	for op, want := range map[string]ga.Crossover{"ux": ga.Uniform{}, "2pt": ga.KPoint{K: 2}} {
		cfg := Config{Base: ga.Config{Parts: 2, Seeds: seeds}, Operator: op}
		if got := cfg.crossover(g, 1); got != want {
			t.Errorf("operator %q: got %#v, want %#v", op, got, want)
		}
	}
	m, err := New(g, Config{Base: ga.Config{Parts: 2, PopSize: 32, Seed: 3}, Islands: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(6)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
