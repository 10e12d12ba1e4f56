// Package anneal implements a simulated-annealing graph partitioner — the
// other major "physical optimization" heuristic of the paper's era (cf.
// Johnson et al. 1989; Mansour 1992, cited by the paper). It optimizes the
// same Fitness 1/Fitness 2 objectives as the GA, so the two stochastic
// methods are directly comparable in the ablation benchmarks.
//
// The move set is single-node reassignment (the same neighborhood as the
// GA's hill climber) and the cooling schedule is geometric. The current
// partition lives in a partition.Eval, so each proposal is scored by the
// shared gain definition (Eval.MoveGain) in O(deg(v) + k) and each accepted
// move is applied in O(deg(v)); only a new best solution costs O(n), to copy
// it.
package anneal

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Config parameterizes an annealing run. Zero values select defaults tuned
// for the paper's graph sizes.
type Config struct {
	Parts     int
	Objective partition.Objective

	InitialTemp float64 // default: set so ~60% of uphill moves accepted
	FinalTemp   float64 // default 0.05
	Cooling     float64 // geometric factor per sweep; default 0.95
	SweepsPerT  int     // node-sweeps per temperature; default 4

	Seed int64
}

func (c *Config) withDefaults(n int) Config {
	out := *c
	if out.FinalTemp == 0 {
		out.FinalTemp = 0.05
	}
	if out.Cooling == 0 {
		out.Cooling = 0.95
	}
	if out.SweepsPerT == 0 {
		out.SweepsPerT = 4
	}
	return out
}

// Partition anneals a random balanced partition of g and returns the best
// solution encountered.
func Partition(g *graph.Graph, cfg Config) (*partition.Partition, error) {
	if cfg.Parts <= 0 {
		return nil, fmt.Errorf("anneal: invalid part count %d", cfg.Parts)
	}
	n := g.NumNodes()
	c := cfg.withDefaults(n)
	rng := rand.New(rand.NewSource(c.Seed))
	cur := partition.RandomBalanced(n, c.Parts, rng)
	if n == 0 {
		return cur, nil
	}
	return Improve(g, cur, c, rng)
}

// Improve anneals from a given starting partition (which is not modified)
// and returns the best solution encountered. Exposed so annealing can also
// act as a refinement stage.
func Improve(g *graph.Graph, start *partition.Partition, cfg Config, rng *rand.Rand) (*partition.Partition, error) {
	n := g.NumNodes()
	c := cfg.withDefaults(n)
	if c.Parts == 0 {
		c.Parts = start.Parts
	}
	if c.Parts != start.Parts {
		return nil, fmt.Errorf("anneal: config parts %d != partition parts %d", c.Parts, start.Parts)
	}
	cur := start.Clone()
	ev := partition.NewEval(g, cur)
	if c.Objective == partition.CommVolume {
		ev.Track(g, cur, c.Objective, 1)
	}
	curFit := ev.Fitness(g, c.Objective)
	best := cur.Clone()
	bestFit := curFit

	temp := c.InitialTemp
	if temp <= 0 {
		temp = calibrateTemp(g, cur, ev, c, rng)
	}
	for ; temp > c.FinalTemp; temp *= c.Cooling {
		for sweep := 0; sweep < c.SweepsPerT; sweep++ {
			for trial := 0; trial < n; trial++ {
				v := rng.Intn(n)
				from := int(cur.Assign[v])
				to := rng.Intn(c.Parts)
				if to == from {
					continue
				}
				delta := ev.MoveGain(g, cur, c.Objective, v, to)
				if delta >= 0 || rng.Float64() < math.Exp(delta/temp) {
					ev.Move(g, cur, v, to)
					curFit += delta
					if curFit > bestFit {
						// Deltas accumulate float error; refresh exactly.
						curFit = ev.Fitness(g, c.Objective)
						if curFit > bestFit {
							bestFit = curFit
							copy(best.Assign, cur.Assign)
						}
					}
				}
			}
		}
	}
	return best, nil
}

// calibrateTemp samples random uphill moves of p, scored through ev, and
// picks a temperature at which ~60% of them would be accepted.
func calibrateTemp(g *graph.Graph, p *partition.Partition, ev *partition.Eval, c Config, rng *rand.Rand) float64 {
	n := g.NumNodes()
	var sum float64
	uphill := 0
	for trial := 0; trial < 200 && uphill < 50; trial++ {
		v := rng.Intn(n)
		to := rng.Intn(c.Parts)
		if int(p.Assign[v]) == to {
			continue
		}
		if d := ev.MoveGain(g, p, c.Objective, v, to); d < 0 {
			sum -= d
			uphill++
		}
	}
	if uphill == 0 {
		return 1
	}
	// exp(-mean/T) = 0.6  =>  T = mean / ln(1/0.6)
	return sum / float64(uphill) / math.Log(1/0.6)
}
