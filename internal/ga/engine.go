package ga

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/par"
	"repro/internal/partition"
)

// Config parameterizes a single-population GA run. Zero values select the
// paper's defaults where the paper specifies one (population 320, pc = 0.7,
// pm = 0.01) and sensible choices where it does not (binary tournament,
// 2 elites).
type Config struct {
	Parts     int                 // number of parts (required)
	Objective partition.Objective // Fitness 1 (TotalCut) or Fitness 2 (WorstCut)

	PopSize int     // population size; default 320 (the paper's total)
	Pc      float64 // crossover rate; default 0.7
	Pm      float64 // per-gene mutation rate; default 0.01

	Crossover Crossover // required
	Selection Selection // default Tournament{Size: 2}
	Elites    int       // individuals copied unchanged; default 2

	// Seeds optionally initializes part of the population with heuristic
	// solutions (IBP, RSB, or a previous partition in the incremental case).
	// The rest of the population is filled with perturbed copies of the
	// seeds (SeedPerturb) or, with no seeds, random balanced partitions.
	Seeds       []*partition.Partition
	SeedPerturb float64 // default 0.15

	// HillClimb applies one pass of boundary hill climbing (§3.6) to each
	// offspring. Off by default: the paper reports it as an optional
	// improvement.
	HillClimb bool

	// SteadyState switches replacement from generational (the default; a
	// whole new population per Step) to steady-state: each Step still
	// produces PopSize offspring, but each offspring immediately replaces
	// the current worst individual if fitter, so good genes propagate
	// within a generation. The paper does not specify its policy;
	// BenchmarkAblationReplacement compares the two.
	SteadyState bool

	// EvalWorkers sets how many goroutines (internal/par) evaluate offspring
	// fitness (and run optional hill climbing) concurrently during the
	// evaluate phase of each generation. Values <= 0 select
	// runtime.GOMAXPROCS(0); 1 is the serial loop. Evaluation is pure — only
	// the serial breed phase consumes the RNG — so results are bit-identical
	// for every worker count. SteadyState replacement is inherently
	// sequential (each offspring's selection sees the previous replacement)
	// and ignores this knob.
	EvalWorkers int

	Seed int64 // RNG seed; runs with equal Config are bit-reproducible
}

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
	if out.Selection == nil {
		out.Selection = Tournament{Size: 2}
	}
	if out.Elites == 0 {
		out.Elites = 2
	}
	if out.SeedPerturb == 0 {
		out.SeedPerturb = 0.15
	}
	out.EvalWorkers = par.Workers(out.EvalWorkers)
	return out
}

// Stats records the trajectory of a run, one entry per generation, starting
// with the initial population (generation 0).
type Stats struct {
	BestFitness []float64 // best fitness in the population
	BestCut     []float64 // CutSize of the best individual
	BestMaxCut  []float64 // MaxPartCut of the best individual
	MeanFitness []float64 // population mean fitness
	Diversity   []float64 // mean per-gene disagreement with the best (0 = converged)
}

// Engine is a single-population generational GA. Create with New, advance
// with Step or Run, inspect with Best.
type Engine struct {
	g   *graph.Graph
	cfg Config
	rng *rand.Rand

	pop  []*Individual
	best *Individual // best ever seen (may have left the population)
	gen  int

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
	if c.PopSize < 2 {
		return nil, fmt.Errorf("ga: PopSize must be >= 2, got %d", c.PopSize)
	}
	if c.Elites >= c.PopSize {
		return nil, fmt.Errorf("ga: Elites %d >= PopSize %d", c.Elites, c.PopSize)
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
	if prov, ok := c.Crossover.(EstimateProvider); ok {
		if est := prov.Estimate(); est != nil && len(est.Assign) == g.NumNodes() && est.Parts == c.Parts {
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
			p = c.Seeds[e.rng.Intn(len(c.Seeds))].Perturb(c.SeedPerturb, e.rng)
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

func (e *Engine) updateEstimate() {
	if e.best.Fitness <= e.estFitness {
		return // current estimate is at least as good; keep the knowledge
	}
	if up, ok := e.cfg.Crossover.(EstimateUpdater); ok {
		up.SetEstimate(e.best.Part)
		e.estFitness = e.best.Fitness
	}
}

func (e *Engine) record() {
	e.stats.BestFitness = append(e.stats.BestFitness, e.best.Fitness)
	e.stats.BestCut = append(e.stats.BestCut, e.best.Part.CutSize(e.g))
	e.stats.BestMaxCut = append(e.stats.BestMaxCut, e.best.Part.MaxPartCut(e.g))

	// The O(popsize × n) disagreement scan runs on the evaluation workers.
	// Per-individual counts are integers, so the parallel map plus in-order
	// reduce below is exact for every worker count.
	ref := e.fittest().Part.Assign
	counts := make([]int, len(e.pop))
	e.forEach(len(e.pop), func(i int) {
		d := 0
		for j, q := range e.pop[i].Part.Assign {
			if q != ref[j] {
				d++
			}
		}
		counts[i] = d
	})
	var meanFit, disagree float64
	for i, ind := range e.pop {
		meanFit += ind.Fitness
		disagree += float64(counts[i])
	}
	n := float64(len(e.pop))
	e.stats.MeanFitness = append(e.stats.MeanFitness, meanFit/n)
	genes := float64(len(ref))
	if genes == 0 {
		genes = 1
	}
	e.stats.Diversity = append(e.stats.Diversity, disagree/(n*genes))
}

// Step advances one generation: elitism, then a strictly serial breed phase
// (selection, crossover, mutation — everything that consumes the RNG),
// then a parallel evaluate phase (optional hill climbing and fitness, pure
// per-individual work spread over Config.EvalWorkers), then replacement
// (generational or steady-state per Config.SteadyState).
func (e *Engine) Step() {
	if e.cfg.SteadyState {
		e.stepSteadyState()
		return
	}
	c := e.cfg
	next := make([]*Individual, 0, c.PopSize)

	// Elites: the c.Elites fittest individuals survive unchanged.
	elite := e.eliteIndices()
	for _, i := range elite {
		next = append(next, e.pop[i].Clone())
	}

	// Breed phase: serial on the single rand.Rand, which defines the
	// bit-reproducible stream.
	offspring := make([]*Individual, 0, c.PopSize-len(next))
	for len(next)+len(offspring) < c.PopSize {
		offspring = append(offspring, e.breedOne())
	}

	// Evaluate phase: pure, parallel across the evaluation workers.
	e.evaluate(offspring, c.HillClimb)

	e.pop = append(next, offspring...)
	e.gen++

	if f := e.fittest(); f.Fitness > e.best.Fitness {
		e.best = f.Clone()
		e.updateEstimate()
	}
	e.record()
}

// breedOne produces one unevaluated offspring: selection, crossover or
// fitter-parent cloning, then mutation. Cloned offspring inherit their
// parent's cached aggregates, which mutation updates incrementally;
// crossover offspring are evaluated from scratch in the evaluate phase.
func (e *Engine) breedOne() *Individual {
	c := e.cfg
	i := c.Selection.Pick(e.pop, e.rng)
	j := c.Selection.Pick(e.pop, e.rng)
	a, b := e.pop[i], e.pop[j]
	var ind *Individual
	if e.rng.Float64() < c.Pc {
		ind = &Individual{Part: c.Crossover.Cross(e.g, a, b, e.rng)}
	} else {
		// No crossover: clone the fitter parent.
		if b.Fitness > a.Fitness {
			a = b
		}
		ind = a.Clone()
	}
	e.mutate(ind)
	return ind
}

// finish completes one offspring: builds the cached aggregates if the breed
// phase didn't leave any, applies one boundary hill-climbing pass if asked,
// and recomputes fitness from the (delta-updated) aggregates. finish is
// pure with respect to the engine: it touches only ind, so any number of
// finishes may run concurrently.
func (e *Engine) finish(ind *Individual, hillClimb bool) {
	if ind.ev == nil {
		ind.ev = partition.NewEval(e.g, ind.Part)
	}
	if hillClimb {
		kl.HillClimbEval(e.g, ind.Part, e.cfg.Objective, 1, ind.ev)
	}
	ind.Fitness = ind.ev.Fitness(e.g, e.cfg.Objective)
}

// evaluate finishes a batch of offspring on the evaluation workers.
func (e *Engine) evaluate(batch []*Individual, hillClimb bool) {
	e.forEach(len(batch), func(i int) { e.finish(batch[i], hillClimb) })
}

// forEach runs fn(i) for i in [0, n) over Config.EvalWorkers goroutines; at
// one worker it is the serial loop.
func (e *Engine) forEach(n int, fn func(int)) {
	par.For(e.cfg.EvalWorkers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// stepSteadyState produces PopSize offspring, each immediately replacing
// the worst individual when fitter. Elitism is implicit: the best
// individuals are never the worst, so they survive. Breeding and evaluation
// cannot be split into phases here — each offspring's selection observes the
// previous offspring's replacement — so this path is serial by construction.
func (e *Engine) stepSteadyState() {
	c := e.cfg
	for k := 0; k < c.PopSize; k++ {
		ind := e.breedOne()
		e.finish(ind, c.HillClimb)
		worst := 0
		for w := range e.pop {
			if e.pop[w].Fitness < e.pop[worst].Fitness {
				worst = w
			}
		}
		if ind.Fitness > e.pop[worst].Fitness {
			e.pop[worst] = ind
			if ind.Fitness > e.best.Fitness {
				e.best = ind.Clone()
				e.updateEstimate()
			}
		}
	}
	e.gen++
	e.record()
}

// eliteIndices returns the indices of the Elites fittest individuals.
func (e *Engine) eliteIndices() []int {
	k := e.cfg.Elites
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

// mutate flips each gene with probability Pm. When the individual carries
// cached aggregates (cloned offspring), each flip is applied as an O(deg)
// delta update so fitness needs no rescan.
func (e *Engine) mutate(ind *Individual) {
	p := ind.Part
	for i := range p.Assign {
		if e.rng.Float64() < e.cfg.Pm {
			to := e.rng.Intn(p.Parts)
			if ind.ev != nil {
				ind.ev.Move(e.g, p, i, to)
			} else {
				p.Assign[i] = uint16(to)
			}
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

// Generation returns the number of Step calls so far.
func (e *Engine) Generation() int { return e.gen }

// Stats returns the recorded per-generation trajectory (entry 0 is the
// initial population). The returned value shares no state with the engine.
func (e *Engine) Stats() Stats {
	return Stats{
		BestFitness: append([]float64(nil), e.stats.BestFitness...),
		BestCut:     append([]float64(nil), e.stats.BestCut...),
		BestMaxCut:  append([]float64(nil), e.stats.BestMaxCut...),
		MeanFitness: append([]float64(nil), e.stats.MeanFitness...),
		Diversity:   append([]float64(nil), e.stats.Diversity...),
	}
}

// Population returns the live population. The dpga package uses this for
// migration; other callers should treat it as read-only.
func (e *Engine) Population() []*Individual { return e.pop }

// Inject replaces the worst individual with a copy of ind (evaluated under
// this engine's objective) if ind is fitter. Used by the distributed model
// to implement migration; returns whether the migrant was accepted.
func (e *Engine) Inject(p *partition.Partition) bool {
	ind := NewIndividual(e.g, p.Clone(), e.cfg.Objective)
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
