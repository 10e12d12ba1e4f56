// Package ga implements the paper's genetic algorithm for graph
// partitioning: the assignment-vector representation, the traditional
// crossover operators (one-point, two-point, k-point, uniform), the paper's
// knowledge-based operators KNUX and DKNUX, mutation, selection, optional
// boundary hill climbing, and the single-population engine that the
// distributed-population model (package dpga) runs as each island, with an
// operator dpga builds from its name. KNUX keeps its estimate for the whole
// run; the engine hands a DKNUX operator every new best that is fitter than
// its current estimate.
package ga

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// Individual is one member of the population: a candidate partition plus its
// cached fitness and per-part aggregates. Fitness is always kept in sync
// with Part by the engine; operators that modify Part must re-evaluate.
//
// On graphs with integer weights the aggregates are exactly those a fresh
// scan of Part would build. An offspring's are its parent's, moved gene by
// gene to its own, so on fractional weights they may differ from a fresh
// scan in the last bits, deterministically for a given run (see
// partition.Eval.Fitness).
type Individual struct {
	Part    *partition.Partition
	Fitness float64

	// ev caches the part weights and part cuts backing Fitness, so
	// crossover, mutation and hill climbing update fitness incrementally
	// instead of rescanning the graph; it also tracks the boundary when the
	// engine hill-climbs. Only a member of the initial population has none
	// before its first evaluation; every offspring starts with a copy of its
	// parent's.
	ev *partition.Eval
}

// NewIndividual evaluates p against g under objective o and wraps it.
func NewIndividual(g *graph.Graph, p *partition.Partition, o partition.Objective) *Individual {
	ev := partition.NewEval(g, p)
	return &Individual{Part: p, Fitness: ev.Fitness(g, o), ev: ev}
}

// Clone deep-copies the individual, including its cached aggregates.
func (ind *Individual) Clone() *Individual {
	c := &Individual{Part: ind.Part.Clone(), Fitness: ind.Fitness}
	if ind.ev != nil {
		c.ev = ind.ev.Clone()
	}
	return c
}
