// Package dpga implements the paper's coarse-grained distributed-population
// genetic algorithm (§3.4): the population is divided into subpopulations
// ("islands") on a hypercube (the paper uses a four-dimensional hypercube
// of 16 subpopulations); crossover is restricted to members of the same
// subpopulation, and each island periodically sends copies of its best
// individuals to its hypercube neighbors.
//
// dpga is the one driver of the paper's GA: a single island is exactly the
// single-population engine, ga.New(Base).Run. Islands advance independently
// between migrations and step concurrently over internal/par; results are
// bit-identical at every width because every island owns its RNG and its
// crossover operator, migration happens at a barrier, and evaluation is
// pure.
package dpga

import (
	"fmt"
	"math/rand"

	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// hypercubeNeighbors returns the islands that island i of n sends migrants
// to: every island whose index differs from i in exactly one bit. With
// n=16 this is the paper's 4-dimensional hypercube.
func hypercubeNeighbors(i, n int) []int {
	var out []int
	for bit := 1; bit < n; bit <<= 1 {
		out = append(out, i^bit)
	}
	return out
}

// Config parameterizes a distributed run. Island population size is
// Base.PopSize/Islands (the paper runs total population 320 over 16
// islands of 20).
type Config struct {
	// Base holds the shared GA parameters; PopSize is the TOTAL population.
	// Base.EvalWorkers is the model's width (<= 0 selects GOMAXPROCS): with
	// several islands, that many islands step at once and each evaluates
	// its offspring serially; a single island evaluates its offspring at
	// that width. Every width gives bit-identical results. Base.Crossover
	// must be nil: operators come from CrossoverFactory.
	Base    ga.Config
	Islands int // hypercube subpopulations, a power of two; default 16 (paper)

	MigrationInterval int // generations between migrations; default 5
	Migrants          int // best individuals sent per neighbor; default 1

	// CrossoverFactory builds island i's crossover operator (required).
	// Every island gets its own instance, so per-run operator state (the
	// KNUX/DKNUX estimate) is never shared by concurrently stepping islands.
	CrossoverFactory func(island int) ga.Crossover

	// Stop, when non-nil, is polled at every migration barrier (the model's
	// only serial checkpoint): Run returns the best individual found so far
	// once it reports true. With several islands the cancellation latency
	// is MigrationInterval generations; a single island has nothing to
	// migrate and is polled before every generation.
	Stop func() bool
}

// Model is a running distributed GA.
type Model struct {
	cfg     Config
	width   int // islands stepped at once within an epoch
	islands []*ga.Engine
	gen     int
}

// New validates cfg and builds the islands. With several islands each
// receives a distinct RNG seed derived from Base.Seed and its index, so
// islands explore independently but the whole run is reproducible; a single
// island runs on Base.Seed itself.
func New(g *graph.Graph, cfg Config) (*Model, error) {
	if cfg.Islands == 0 {
		cfg.Islands = 16
	}
	if cfg.MigrationInterval == 0 {
		cfg.MigrationInterval = 5
	}
	if cfg.Migrants == 0 {
		cfg.Migrants = 1
	}
	if n := cfg.Islands; n < 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dpga: hypercube needs a power-of-two island count, got %d", n)
	}
	if cfg.Base.Crossover != nil {
		return nil, fmt.Errorf("dpga: Base.Crossover would be shared by concurrent islands; set CrossoverFactory")
	}
	if cfg.CrossoverFactory == nil {
		return nil, fmt.Errorf("dpga: CrossoverFactory is required")
	}
	total := cfg.Base.PopSize
	if total == 0 {
		total = 320
	}
	per := total / cfg.Islands
	if per < 2 {
		return nil, fmt.Errorf("dpga: %d islands leave %d individuals each (need >= 2)", cfg.Islands, per)
	}
	m := &Model{cfg: cfg, width: par.Workers(cfg.Base.EvalWorkers)}
	for i := 0; i < cfg.Islands; i++ {
		ic := cfg.Base
		ic.PopSize = per
		ic.Crossover = cfg.CrossoverFactory(i)
		ic.EvalWorkers = m.width
		if cfg.Islands > 1 {
			// The islands themselves fill the width.
			ic.EvalWorkers = 1
			// Derive independent island seeds; avoid correlated streams.
			ic.Seed = rand.New(rand.NewSource(cfg.Base.Seed + int64(i)*7919)).Int63()
		}
		e, err := ga.New(g, ic)
		if err != nil {
			return nil, fmt.Errorf("dpga: island %d: %w", i, err)
		}
		m.islands = append(m.islands, e)
	}
	return m, nil
}

// Run advances all islands by generations steps, migrating every
// MigrationInterval generations, and returns the best individual across
// islands.
func (m *Model) Run(generations int) *ga.Individual {
	interval := m.cfg.MigrationInterval
	if len(m.islands) == 1 {
		interval = 1 // nothing to migrate: every generation is a barrier
	}
	for done := 0; done < generations; {
		if m.cfg.Stop != nil && m.cfg.Stop() {
			break
		}
		step := min(interval, generations-done)
		m.epoch(step)
		done += step
		if done < generations {
			m.migrate()
		}
	}
	return m.Best()
}

// epoch advances every island by steps generations, m.width islands at a
// time.
func (m *Model) epoch(steps int) {
	par.For(m.width, len(m.islands), func(_, lo, hi int) {
		for _, e := range m.islands[lo:hi] {
			for s := 0; s < steps; s++ {
				e.Step()
			}
		}
	})
	m.gen += steps
}

// migrate sends copies of each island's best Migrants individuals to every
// hypercube neighbor. Migration is applied island by island after all
// sends are collected, so the order of islands does not privilege anyone
// within an exchange round.
func (m *Model) migrate() {
	n := len(m.islands)
	type migrant struct {
		to   int
		part *partition.Partition
	}
	var batch []migrant
	for i, e := range m.islands {
		bests := topK(e.Population(), m.cfg.Migrants)
		for _, to := range hypercubeNeighbors(i, n) {
			for _, b := range bests {
				batch = append(batch, migrant{to, b.Part.Clone()})
			}
		}
	}
	for _, mg := range batch {
		m.islands[mg.to].Inject(mg.part)
	}
}

// topK returns the k fittest individuals of pop (k <= len(pop) enforced by
// clamping).
func topK(pop []*ga.Individual, k int) []*ga.Individual {
	if k > len(pop) {
		k = len(pop)
	}
	idx := make([]int, 0, k)
	for cand := range pop {
		if len(idx) < k {
			idx = append(idx, cand)
			for t := len(idx) - 1; t > 0 && pop[idx[t]].Fitness > pop[idx[t-1]].Fitness; t-- {
				idx[t], idx[t-1] = idx[t-1], idx[t]
			}
			continue
		}
		if pop[cand].Fitness > pop[idx[k-1]].Fitness {
			idx[k-1] = cand
			for t := k - 1; t > 0 && pop[idx[t]].Fitness > pop[idx[t-1]].Fitness; t-- {
				idx[t], idx[t-1] = idx[t-1], idx[t]
			}
		}
	}
	out := make([]*ga.Individual, k)
	for i, j := range idx {
		out[i] = pop[j]
	}
	return out
}

// Best returns a clone of the best individual across all islands.
func (m *Model) Best() *ga.Individual {
	best := m.islands[0].Best()
	for _, e := range m.islands[1:] {
		if b := e.Best(); b.Fitness > best.Fitness {
			best = b
		}
	}
	return best
}

// Generation returns the number of generations completed.
func (m *Model) Generation() int { return m.gen }

// Islands exposes the underlying engines (read-only use).
func (m *Model) Islands() []*ga.Engine { return m.islands }

// BestFitnessSeries returns, for each generation index, the maximum
// best-fitness across islands. Each island's series is monotone
// non-decreasing, so the aggregate is too.
func (m *Model) BestFitnessSeries() []float64 {
	var out []float64
	for _, e := range m.islands {
		s := e.Stats().BestFitness
		for gi, v := range s {
			if gi >= len(out) {
				out = append(out, v)
			} else if v > out[gi] {
				out[gi] = v
			}
		}
	}
	return out
}

// BestCutSeries returns, for each generation index, the minimum best-cut
// across islands — the convergence trajectory used in the figures. Unlike
// fitness, cut size is not guaranteed monotone: the fittest individual can
// trade a slightly larger cut for much better balance.
func (m *Model) BestCutSeries() []float64 {
	var out []float64
	for _, e := range m.islands {
		s := e.Stats().BestCut
		for gi, v := range s {
			if gi >= len(out) {
				out = append(out, v)
			} else if v < out[gi] {
				out[gi] = v
			}
		}
	}
	return out
}
