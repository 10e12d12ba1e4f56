package ga

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

func smallConfig(parts int, x Crossover) Config {
	return Config{
		Parts:     parts,
		PopSize:   40,
		Crossover: x,
		Seed:      1,
	}
}

func TestNewValidation(t *testing.T) {
	g := gen.Mesh(30, 1)
	cases := []Config{
		{Parts: 0, Crossover: Uniform{}},             // bad parts
		{Parts: 2},                                   // no crossover
		{Parts: 2, Crossover: Uniform{}, PopSize: 1}, // tiny population
		{Parts: 2, Crossover: Uniform{}, PopSize: 2}, // no room beside the 2 elites
		{Parts: 2, Crossover: Uniform{}, Pc: 1.5},    // bad rate
		{Parts: 2, Crossover: Uniform{}, Pm: -0.1},   // bad rate
	}
	for i, cfg := range cases {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Seed with wrong parts count.
	seed := partition.New(g.NumNodes(), 4)
	if _, err := New(g, Config{Parts: 2, Crossover: Uniform{}, Seeds: []*partition.Partition{seed}}); err == nil {
		t.Error("seed with mismatched parts accepted")
	}
	// Seed with wrong node count.
	seed2 := partition.New(5, 2)
	if _, err := New(g, Config{Parts: 2, Crossover: Uniform{}, Seeds: []*partition.Partition{seed2}}); err == nil {
		t.Error("seed with mismatched length accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := gen.Mesh(30, 1)
	e, err := New(g, Config{Parts: 2, Crossover: Uniform{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Population()) != 320 {
		t.Errorf("default population = %d, want 320 (paper)", len(e.Population()))
	}
	if e.cfg.Pc != 0.7 || e.cfg.Pm != 0.01 {
		t.Errorf("default rates pc=%v pm=%v, want 0.7/0.01 (paper)", e.cfg.Pc, e.cfg.Pm)
	}
}

func TestBestFitnessMonotone(t *testing.T) {
	g := gen.Mesh(60, 2)
	e, err := New(g, smallConfig(4, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(20)
	s := e.Stats()
	if len(s.BestFitness) != 21 {
		t.Fatalf("stats length %d, want 21", len(s.BestFitness))
	}
	for i := 1; i < len(s.BestFitness); i++ {
		if s.BestFitness[i] < s.BestFitness[i-1] {
			t.Fatalf("best fitness regressed at gen %d: %v -> %v", i, s.BestFitness[i-1], s.BestFitness[i])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := gen.Mesh(50, 3)
	run := func() []uint16 {
		cfg := smallConfig(4, KPoint{K: 2})
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(15).Part.Assign
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different results")
		}
	}
}

func TestSeedsEnterPopulation(t *testing.T) {
	g := gen.Mesh(40, 4)
	rng := rand.New(rand.NewSource(5))
	seed := partition.RandomBalanced(40, 2, rng)
	cfg := smallConfig(2, Uniform{})
	cfg.Seeds = []*partition.Partition{seed}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Individual 0 must be the seed itself.
	for i := range seed.Assign {
		if e.Population()[0].Part.Assign[i] != seed.Assign[i] {
			t.Fatal("first individual is not the seed")
		}
	}
	// Best of initial population at least as fit as the seed.
	if e.Best().Fitness < seed.Fitness(g, partition.TotalCut) {
		t.Error("initial best worse than seed")
	}
}

func TestSeededRunNeverWorseThanSeed(t *testing.T) {
	g := gen.PaperGraph(78)
	rng := rand.New(rand.NewSource(6))
	seed := partition.RandomBalanced(g.NumNodes(), 4, rng)
	cfg := smallConfig(4, Uniform{})
	cfg.Seeds = []*partition.Partition{seed}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := e.Run(10)
	if best.Fitness < seed.Fitness(g, partition.TotalCut) {
		t.Errorf("GA returned worse than its seed: %v < %v", best.Fitness, seed.Fitness(g, partition.TotalCut))
	}
}

func TestGAImprovesRandomPopulation(t *testing.T) {
	g := gen.Mesh(60, 7)
	e, err := New(g, smallConfig(4, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	first := e.Best().Fitness
	e.Run(30)
	if e.Best().Fitness <= first {
		t.Errorf("30 generations produced no improvement (%v -> %v)", first, e.Best().Fitness)
	}
}

func TestDKNUXBeatsTwoPointAtEqualBudget(t *testing.T) {
	// The paper's central claim: knowledge-based crossover converges far
	// faster than 2-point. At an equal generation budget on a mesh, DKNUX's
	// best cut should be strictly better.
	g := gen.PaperGraph(144)
	gens := 40
	run := func(x Crossover) float64 {
		cfg := Config{Parts: 4, PopSize: 60, Crossover: x, Seed: 11}
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(gens)
		return e.Best().Part.CutSize(g)
	}
	rng := rand.New(rand.NewSource(12))
	est := partition.RandomBalanced(g.NumNodes(), 4, rng)
	dknux := run(NewDKNUX(est))
	twoPoint := run(KPoint{K: 2})
	if dknux >= twoPoint {
		t.Errorf("DKNUX cut %v not better than 2-point %v after %d gens", dknux, twoPoint, gens)
	}
}

func TestDKNUXEstimateTracksBest(t *testing.T) {
	g := gen.Mesh(50, 9)
	rng := rand.New(rand.NewSource(13))
	est := partition.RandomBalanced(50, 4, rng)
	d := NewDKNUX(est)
	cfg := smallConfig(4, d)
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	// The estimate must equal the engine's best.
	best := e.Best()
	for i := range best.Part.Assign {
		if d.Estimate().Assign[i] != best.Part.Assign[i] {
			t.Fatal("DKNUX estimate diverged from engine best")
		}
	}
}

func TestHillClimbOptionImproves(t *testing.T) {
	g := gen.PaperGraph(98)
	base := Config{Parts: 4, PopSize: 30, Crossover: Uniform{}, Seed: 3}
	withHC := base
	withHC.HillClimb = true
	e1, err := New(g, base)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(g, withHC)
	if err != nil {
		t.Fatal(err)
	}
	e1.Run(8)
	e2.Run(8)
	if e2.Best().Fitness < e1.Best().Fitness {
		t.Errorf("hill climbing hurt: %v vs %v", e2.Best().Fitness, e1.Best().Fitness)
	}
}

func TestInject(t *testing.T) {
	g := gen.Mesh(40, 10)
	e, err := New(g, smallConfig(2, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	// A hill-climbed partition should beat the worst random individual.
	rng := rand.New(rand.NewSource(14))
	good := partition.RandomBalanced(40, 2, rng)
	// Make it genuinely good: split by index (mesh nodes are not ordered
	// spatially, so instead improve by injecting the current best).
	best := e.Best().Part
	if !e.Inject(best) {
		// Injecting a copy of the best must be accepted (it beats the worst)
		// unless the whole population is identical — not the case here.
		t.Error("Inject rejected the population best")
	}
	_ = good
	// Worthless individual must be rejected: craft one worse than everything.
	bad := partition.New(40, 2) // all nodes in one part: huge imbalance
	worst := e.Population()[0].Fitness
	for _, ind := range e.Population() {
		if ind.Fitness < worst {
			worst = ind.Fitness
		}
	}
	if bad.Fitness(g, partition.TotalCut) < worst {
		if e.Inject(bad) {
			t.Error("Inject accepted an individual worse than the whole population")
		}
	}
}

// Stats holds one entry per generation, the initial population included,
// so its length counts the Steps taken.
func TestGenerationCounter(t *testing.T) {
	g := gen.Mesh(30, 11)
	e, err := New(g, smallConfig(2, Uniform{}))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.Stats().BestFitness); n != 1 {
		t.Errorf("initial Stats hold %d generations, want 1", n)
	}
	e.Run(5)
	if n := len(e.Stats().BestFitness); n != 6 {
		t.Errorf("after 5 steps Stats hold %d generations, want 6", n)
	}
}

func TestElitesPreserveBest(t *testing.T) {
	g := gen.Mesh(50, 12)
	e, err := New(g, smallConfig(4, KPoint{K: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		prevBest := e.Best().Fitness
		e.Step()
		// With elitism, the population must still contain an individual at
		// least as fit as the previous best.
		var popBest float64 = -1e18
		for _, ind := range e.Population() {
			if ind.Fitness > popBest {
				popBest = ind.Fitness
			}
		}
		if popBest < prevBest {
			t.Fatalf("elitism violated at step %d: %v < %v", step, popBest, prevBest)
		}
	}
}

func TestSelectionPrefersFit(t *testing.T) {
	// A population with one clearly fittest individual: binary tournament
	// must pick it more often than uniform chance.
	g := gen.Mesh(30, 14)
	rng := rand.New(rand.NewSource(15))
	pop := make([]*Individual, 10)
	for i := range pop {
		pop[i] = NewIndividual(g, partition.Random(30, 2, rng), partition.TotalCut)
	}
	// Make individual 3 clearly best.
	best := partition.RandomBalanced(30, 2, rng)
	pop[3] = NewIndividual(g, best, partition.TotalCut)
	pop[3].Fitness = -1 // near-perfect
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if tournament(pop, rng) == 3 {
			hits++
		}
	}
	if hits <= trials/len(pop) {
		t.Errorf("tournament picked the best %d/%d times, no better than uniform", hits, trials)
	}
}

// refTournamentPick is size-k tournament selection: k uniform draws, the
// first fittest wins. At k = 2 it is the reference tournament must match.
func refTournamentPick(size int, pop []*Individual, rng *rand.Rand) int {
	best := rng.Intn(len(pop))
	for i := 1; i < size; i++ {
		c := rng.Intn(len(pop))
		if pop[c].Fitness > pop[best].Fitness {
			best = c
		}
	}
	return best
}

// tournament returns the same index as the size-2 reference and leaves the
// RNG in the same state, on random populations full of fitness ties.
func TestTournamentMatchesReference(t *testing.T) {
	src := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		pop := make([]*Individual, 1+src.Intn(12))
		for i := range pop {
			// Three distinct values, so many draws compare equal fitnesses.
			pop[i] = &Individual{Fitness: -float64(src.Intn(3))}
		}
		seed := src.Int63()
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for pick := 0; pick < 20; pick++ {
			if i, j := tournament(pop, got), refTournamentPick(2, pop, want); i != j {
				t.Fatalf("trial %d pick %d: tournament chose %d, reference %d", trial, pick, i, j)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("trial %d: RNG state diverged from the reference", trial)
		}
	}
}

func TestWorstCutObjectiveRun(t *testing.T) {
	g := gen.PaperGraph(78)
	rng := rand.New(rand.NewSource(16))
	est := partition.RandomBalanced(g.NumNodes(), 4, rng)
	cfg := Config{
		Parts:     4,
		Objective: partition.WorstCut,
		PopSize:   40,
		Crossover: NewDKNUX(est),
		Seed:      17,
	}
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := e.Best().Part.MaxPartCut(g)
	last := e.Run(25).Part.MaxPartCut(g)
	if last > first {
		t.Errorf("worst-cut objective: max cut grew %v -> %v", first, last)
	}
}
