package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/par"
	"repro/internal/partition"
)

// Config parameterizes a single-population GA run. Zero values select the
// paper's defaults (population 320, pc = 0.7, pm = 0.01). The choices the
// paper leaves open are fixed: binary tournament selection, generational
// replacement keeping the 2 fittest individuals, and seed copies perturbed
// at 15%.
type Config struct {
	Parts     int                 // number of parts (required)
	Objective partition.Objective // Fitness 1 (TotalCut) or Fitness 2 (WorstCut)

	PopSize int     // population size; default 320 (the paper's total)
	Pc      float64 // crossover rate; default 0.7
	Pm      float64 // per-gene mutation rate; default 0.01

	Crossover Crossover // required

	// Seeds optionally initializes part of the population with heuristic
	// solutions (IBP, RSB, or a previous partition in the incremental case).
	// The rest of the population is filled with perturbed copies of the
	// seeds or, with no seeds, random balanced partitions.
	Seeds []*partition.Partition

	// HillClimb applies one pass of boundary hill climbing (§3.6) to each
	// offspring. Off by default: the paper reports it as an optional
	// improvement.
	HillClimb bool

	// EvalWorkers sets how many goroutines (internal/par) evaluate offspring
	// fitness (and run optional hill climbing) concurrently during the
	// evaluate phase of each generation. Values <= 0 select
	// runtime.GOMAXPROCS(0); 1 is the serial loop. Evaluation is pure — only
	// the serial breed phase consumes the RNG — so results are bit-identical
	// for every worker count.
	EvalWorkers int

	Seed int64 // RNG seed; runs with equal Config are bit-reproducible
}

const (
	elites      = 2    // fittest individuals copied unchanged into each generation
	seedPerturb = 0.15 // fraction of genes re-drawn in each perturbed seed copy
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.PopSize == 0 {
		out.PopSize = 320
	}
	if out.Pc == 0 {
		out.Pc = 0.7
	}
	if out.Pm == 0 {
		out.Pm = 0.01
	}
	out.EvalWorkers = par.Workers(out.EvalWorkers)
	return out
}

// Stats records the trajectory of a run, one entry per generation, starting
// with the initial population (generation 0).
type Stats struct {
	BestFitness []float64 // fitness of the best individual found so far
	// BestCut is that individual's cut weight, read from its cached
	// aggregates: exactly its CutSize on integer weights, and on fractional
	// ones within the last bits (see partition.Eval.Fitness).
	BestCut []float64
}

// Engine is a single-population generational GA. Create with New, advance
// with Step or Run, inspect with Best.
type Engine struct {
	g   *graph.Graph
	cfg Config
	rng *rand.Rand

	pop  []*Individual
	best *Individual // best ever seen (may have left the population)

	// free holds the members of the last replaced generation, whose Part
	// and Eval storage breedOne overwrites for the next offspring. None of
	// them is referenced by pop, best or the crossover's estimate.
	free []*Individual

	// estFitness is the fitness of the DKNUX estimate currently held by the
	// crossover operator; the estimate is replaced only by strictly fitter
	// bests, so a good heuristic seed is never displaced by a weaker one.
	estFitness float64

	stats Stats
}

// New validates cfg, builds the initial population, and returns the engine.
func New(g *graph.Graph, cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	if c.Parts <= 0 {
		return nil, fmt.Errorf("ga: Parts must be positive, got %d", c.Parts)
	}
	if c.Crossover == nil {
		return nil, fmt.Errorf("ga: Crossover is required")
	}
	if c.PopSize <= elites {
		return nil, fmt.Errorf("ga: PopSize must exceed the %d elites, got %d", elites, c.PopSize)
	}
	if c.Pc < 0 || c.Pc > 1 || c.Pm < 0 || c.Pm > 1 {
		return nil, fmt.Errorf("ga: rates must be in [0,1]: pc=%v pm=%v", c.Pc, c.Pm)
	}
	for i, s := range c.Seeds {
		if err := s.Validate(g); err != nil {
			return nil, fmt.Errorf("ga: seed %d: %w", i, err)
		}
		if s.Parts != c.Parts {
			return nil, fmt.Errorf("ga: seed %d has %d parts, config wants %d", i, s.Parts, c.Parts)
		}
	}
	e := &Engine{
		g:          g,
		cfg:        c,
		rng:        rand.New(rand.NewSource(c.Seed)),
		estFitness: math.Inf(-1),
	}
	if d, ok := c.Crossover.(*DKNUX); ok {
		if est := d.Estimate(); len(est.Assign) == g.NumNodes() && est.Parts == c.Parts {
			e.estFitness = est.Fitness(g, c.Objective)
		}
	}
	e.initPopulation()
	e.record()
	return e, nil
}

func (e *Engine) initPopulation() {
	n := e.g.NumNodes()
	c := e.cfg
	// Construction consumes the RNG and stays serial; the initial fitness
	// evaluation is pure and runs on the evaluation workers.
	e.pop = make([]*Individual, 0, c.PopSize)
	for _, s := range c.Seeds {
		if len(e.pop) == c.PopSize {
			break
		}
		e.pop = append(e.pop, &Individual{Part: s.Clone()})
	}
	for len(e.pop) < c.PopSize {
		var p *partition.Partition
		if len(c.Seeds) > 0 {
			p = c.Seeds[e.rng.Intn(len(c.Seeds))].Perturb(seedPerturb, e.rng)
		} else {
			p = partition.RandomBalanced(n, c.Parts, e.rng)
		}
		e.pop = append(e.pop, &Individual{Part: p})
	}
	e.evaluate(e.pop, false)
	e.best = e.fittest().Clone()
	e.updateEstimate()
}

func (e *Engine) fittest() *Individual {
	best := e.pop[0]
	for _, ind := range e.pop[1:] {
		if ind.Fitness > best.Fitness {
			best = ind
		}
	}
	return best
}

// updateEstimate hands a new best to a DKNUX operator, but only when it is
// fitter than the operator's current estimate, so a strong heuristic seed
// (e.g. IBP) is never displaced by a weaker early-population best.
func (e *Engine) updateEstimate() {
	d, ok := e.cfg.Crossover.(*DKNUX)
	if !ok || e.best.Fitness <= e.estFitness {
		return // not DKNUX, or its estimate is at least as good
	}
	d.SetEstimate(e.best.Part)
	e.estFitness = e.best.Fitness
}

func (e *Engine) record() {
	e.stats.BestFitness = append(e.stats.BestFitness, e.best.Fitness)
	e.stats.BestCut = append(e.stats.BestCut, e.best.ev.TotalCutWeight()/2)
}

// Step advances one generation: elitism, then a strictly serial breed phase
// (selection, crossover, mutation — everything that consumes the RNG),
// then a parallel evaluate phase (optional hill climbing and fitness, pure
// per-individual work spread over Config.EvalWorkers), then generational
// replacement. The replaced members go on the free list.
func (e *Engine) Step() {
	c := e.cfg
	next := make([]*Individual, 0, c.PopSize)

	// The elites fittest individuals survive unchanged; the old population
	// is discarded, so they carry over without a copy.
	elite := e.eliteIndices()
	for _, i := range elite {
		next = append(next, e.pop[i])
	}

	// Breed phase: serial on the single rand.Rand, which defines the
	// bit-reproducible stream.
	for len(next) < c.PopSize {
		next = append(next, e.breedOne())
	}

	// Evaluate phase: pure, parallel across the evaluation workers.
	e.evaluate(next[len(elite):], c.HillClimb)

	for i, ind := range e.pop {
		if !slices.Contains(elite, i) {
			e.free = append(e.free, ind)
		}
	}
	e.pop = next

	if f := e.fittest(); f.Fitness > e.best.Fitness {
		e.best = f.Clone()
		e.updateEstimate()
	}
	e.record()
}

// breedOne produces one offspring whose fitness is still its parent's:
// selection, then crossover or fitter-parent cloning, then mutation. Every
// offspring starts as a copy of a parent, Part and Eval, in recycled storage
// when the free list has some. Crossover's child is applied to that copy
// gene by gene through Eval.Move, in ascending gene order, and so are
// mutation's flips, so the aggregates stay exact in O(deg) per changed gene
// instead of a rescan of the graph.
func (e *Engine) breedOne() *Individual {
	c := e.cfg
	a, b := e.pop[tournament(e.pop, e.rng)], e.pop[tournament(e.pop, e.rng)]
	var child *partition.Partition
	if e.rng.Float64() < c.Pc {
		child = c.Crossover.Cross(e.g, a, b, e.rng)
	} else if b.Fitness > a.Fitness {
		a = b // no crossover: clone the fitter parent
	}
	ind := e.copyOf(a)
	if child != nil {
		for v, q := range child.Assign {
			if q != ind.Part.Assign[v] {
				ind.ev.Move(e.g, ind.Part, v, int(q))
			}
		}
	}
	e.mutate(ind)
	return ind
}

// copyOf returns a deep copy of parent, written over a free individual when
// there is one.
func (e *Engine) copyOf(parent *Individual) *Individual {
	n := len(e.free)
	if n == 0 {
		return parent.Clone()
	}
	ind := e.free[n-1]
	e.free = e.free[:n-1]
	copy(ind.Part.Assign, parent.Part.Assign)
	ind.ev = parent.ev.CloneInto(ind.ev)
	ind.Fitness = parent.Fitness
	return ind
}

// finish completes one offspring: builds the cached aggregates if it has
// none (only the initial population), applies one boundary hill-climbing
// pass if asked, and recomputes fitness from the (delta-updated)
// aggregates. finish is pure with respect to the engine: it touches only
// ind, so any number of finishes may run concurrently.
func (e *Engine) finish(ind *Individual, hillClimb bool) {
	if ind.ev == nil {
		ind.ev = e.newEval(ind.Part)
	}
	if hillClimb {
		kl.HillClimbEval(e.g, ind.Part, e.cfg.Objective, 1, ind.ev)
	}
	ind.Fitness = ind.ev.Fitness(e.g, e.cfg.Objective)
}

// newEval builds the Eval of a partition that enters the population without
// a parent (the initial population and migrants): the aggregates, plus the
// trackers the hill climb reads when the engine climbs. Offspring copy
// their parent's, so every Eval of an engine tracks the same state.
func (e *Engine) newEval(p *partition.Partition) *partition.Eval {
	if e.cfg.HillClimb {
		return partition.Tracked(e.g, p, nil, e.cfg.Objective, 1)
	}
	return partition.NewEval(e.g, p)
}

// evaluate finishes a batch of offspring over Config.EvalWorkers
// goroutines; at one worker it is the serial loop.
func (e *Engine) evaluate(batch []*Individual, hillClimb bool) {
	par.For(e.cfg.EvalWorkers, len(batch), func(_, lo, hi int) {
		for _, ind := range batch[lo:hi] {
			e.finish(ind, hillClimb)
		}
	})
}

// tournament is binary tournament selection: it draws two individuals
// uniformly and returns the index of the fitter one, the first on ties.
func tournament(pop []*Individual, rng *rand.Rand) int {
	i := rng.Intn(len(pop))
	if j := rng.Intn(len(pop)); pop[j].Fitness > pop[i].Fitness {
		return j
	}
	return i
}

// eliteIndices returns the indices of the elites fittest individuals.
func (e *Engine) eliteIndices() []int {
	k := elites
	idx := make([]int, 0, k)
	for cand := range e.pop {
		if len(idx) < k {
			idx = append(idx, cand)
			// Bubble the new entry into (descending) place.
			for t := len(idx) - 1; t > 0 && e.pop[idx[t]].Fitness > e.pop[idx[t-1]].Fitness; t-- {
				idx[t], idx[t-1] = idx[t-1], idx[t]
			}
			continue
		}
		if e.pop[cand].Fitness > e.pop[idx[k-1]].Fitness {
			idx[k-1] = cand
			for t := k - 1; t > 0 && e.pop[idx[t]].Fitness > e.pop[idx[t-1]].Fitness; t-- {
				idx[t], idx[t-1] = idx[t-1], idx[t]
			}
		}
	}
	return idx
}

// mutate flips each gene with probability Pm, each flip applied through the
// individual's Eval as an O(deg) delta update so fitness needs no rescan.
func (e *Engine) mutate(ind *Individual) {
	p := ind.Part
	for i := range p.Assign {
		if e.rng.Float64() < e.cfg.Pm {
			ind.ev.Move(e.g, p, i, e.rng.Intn(p.Parts))
		}
	}
}

// Run advances the engine by generations steps and returns the best
// individual found so far (a clone; safe to keep).
func (e *Engine) Run(generations int) *Individual {
	for i := 0; i < generations; i++ {
		e.Step()
	}
	return e.Best()
}

// Best returns a clone of the best individual found so far.
func (e *Engine) Best() *Individual { return e.best.Clone() }

// Stats returns the recorded per-generation trajectory (entry 0 is the
// initial population). The returned value shares no state with the engine.
func (e *Engine) Stats() Stats {
	return Stats{
		BestFitness: append([]float64(nil), e.stats.BestFitness...),
		BestCut:     append([]float64(nil), e.stats.BestCut...),
	}
}

// Population returns the live population. Its members are valid until the
// next Step, which recycles the storage of every member it replaces: a
// caller that keeps one longer must Clone it. The dpga package uses this
// for migration, at a barrier; other callers should treat it as read-only.
func (e *Engine) Population() []*Individual { return e.pop }

// Inject replaces the worst individual with a copy of p (evaluated under
// this engine's objective) if p is fitter. Used by the distributed model
// to implement migration; returns whether the migrant was accepted.
func (e *Engine) Inject(p *partition.Partition) bool {
	p = p.Clone()
	ev := e.newEval(p)
	ind := &Individual{Part: p, Fitness: ev.Fitness(e.g, e.cfg.Objective), ev: ev}
	worst := 0
	for i := range e.pop {
		if e.pop[i].Fitness < e.pop[worst].Fitness {
			worst = i
		}
	}
	if ind.Fitness <= e.pop[worst].Fitness {
		return false
	}
	e.pop[worst] = ind
	if ind.Fitness > e.best.Fitness {
		e.best = ind.Clone()
		e.updateEstimate()
	}
	return true
}
