// Package dpga implements the paper's coarse-grained distributed-population
// genetic algorithm (§3.4): the population is divided into subpopulations
// ("islands") on a hypercube (the paper uses a four-dimensional hypercube
// of 16 subpopulations); crossover is restricted to members of the same
// subpopulation, and every five generations each island sends a copy of
// its best individual to its hypercube neighbors.
//
// dpga is the one driver of the paper's GA: a single island is exactly the
// single-population engine, ga.New(Base).Run. Every island builds its own
// crossover operator from Config.Operator by one rule: DKNUX (or KNUX) over
// the seed Base.Seeds[i%len(Seeds)], or with no seeds over a random balanced
// estimate drawn from Base.Seed+i. Islands advance independently between
// migrations and step concurrently over internal/par; results are
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
	// must be nil: operators come from Operator.
	Base    ga.Config
	Islands int // hypercube subpopulations, a power of two; default 16 (paper)

	// Operator names the crossover by its registry name: "dknux" (the zero
	// value), "knux", "ux" or "2pt". Every island gets its own instance (see
	// crossover), so per-run operator state (the DKNUX estimate) is never
	// shared by concurrently stepping islands.
	Operator string

	// Stop, when non-nil, is polled at every migration barrier (the model's
	// only serial checkpoint): Run returns the best individual found so far
	// once it reports true. With several islands the cancellation latency
	// is the migration interval; a single island has nothing to migrate and
	// is polled before every generation.
	Stop func() bool
}

// migrationInterval is the number of generations between migrations.
const migrationInterval = 5

// The paper's configuration, which New selects for a zero Islands or
// Base.PopSize: a total population of 320 over 16 islands.
const (
	DefaultIslands = 16
	DefaultPopSize = 320
)

// crossover builds island i's operator. KNUX and DKNUX take the island's
// seed as their estimate, seeds dealt round-robin, or without seeds a random
// balanced partition drawn from Base.Seed+i, so islands start from distinct
// estimates either way.
func (c *Config) crossover(g *graph.Graph, i int) ga.Crossover {
	switch c.Operator {
	case "ux":
		return ga.Uniform{}
	case "2pt":
		return ga.KPoint{K: 2}
	}
	var est *partition.Partition
	if seeds := c.Base.Seeds; len(seeds) > 0 {
		est = seeds[i%len(seeds)]
	} else {
		est = partition.RandomBalanced(g.NumNodes(), c.Base.Parts, rand.New(rand.NewSource(c.Base.Seed+int64(i))))
	}
	if c.Operator == "knux" {
		return ga.NewKNUX(est)
	}
	return ga.NewDKNUX(est)
}

// Model is a running distributed GA.
type Model struct {
	cfg     Config
	width   int // islands stepped at once within an epoch
	islands []*ga.Engine
}

// New validates cfg and builds the islands. With several islands each
// receives a distinct RNG seed derived from Base.Seed and its index, so
// islands explore independently but the whole run is reproducible; a single
// island runs on Base.Seed itself.
func New(g *graph.Graph, cfg Config) (*Model, error) {
	if cfg.Islands == 0 {
		cfg.Islands = DefaultIslands
	}
	if n := cfg.Islands; n < 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dpga: hypercube needs a power-of-two island count, got %d", n)
	}
	if cfg.Base.Crossover != nil {
		return nil, fmt.Errorf("dpga: Base.Crossover would be shared by concurrent islands; name the Operator")
	}
	switch cfg.Operator {
	case "", "dknux", "knux", "ux", "2pt":
	default:
		return nil, fmt.Errorf("dpga: unknown crossover operator %q (want dknux, knux, ux or 2pt)", cfg.Operator)
	}
	if cfg.Base.Parts <= 0 {
		return nil, fmt.Errorf("dpga: Parts must be positive, got %d", cfg.Base.Parts)
	}
	total := cfg.Base.PopSize
	if total == 0 {
		total = DefaultPopSize
	}
	per := total / cfg.Islands
	if per < 2 {
		return nil, fmt.Errorf("dpga: %d islands leave %d individuals each (need >= 2)", cfg.Islands, per)
	}
	m := &Model{cfg: cfg, width: par.Workers(cfg.Base.EvalWorkers)}
	for i := 0; i < cfg.Islands; i++ {
		ic := cfg.Base
		ic.PopSize = per
		ic.Crossover = cfg.crossover(g, i)
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
// migrationInterval generations, and returns the best individual across
// islands.
func (m *Model) Run(generations int) *ga.Individual {
	interval := migrationInterval
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
}

// migrate sends a copy of each island's fittest individual, the first on
// ties, to every hypercube neighbor. Migration is applied island by island
// after all sends are collected, so the order of islands does not privilege
// anyone within an exchange round.
func (m *Model) migrate() {
	n := len(m.islands)
	type migrant struct {
		to   int
		part *partition.Partition
	}
	var batch []migrant
	for i, e := range m.islands {
		pop := e.Population()
		best := pop[0]
		for _, ind := range pop[1:] {
			if ind.Fitness > best.Fitness {
				best = ind
			}
		}
		for _, to := range hypercubeNeighbors(i, n) {
			// Inject copies the partition, and a member stays valid until
			// its island's next Step, after this barrier, so the batch may
			// share it.
			batch = append(batch, migrant{to, best.Part})
		}
	}
	for _, mg := range batch {
		m.islands[mg.to].Inject(mg.part)
	}
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
