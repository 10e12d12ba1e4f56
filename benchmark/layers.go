package main

import (
	"math/rand"
	"time"

	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// The V-cycle's default limits, which multilevel-kl runs with.
const (
	coarsestSize = 64
	maxLevels    = 30
)

// hierarchyMetrics rebuilds an op's coarsening hierarchy with the op's seed
// through multilevel.BuildHierarchy and reports its depth, the edges it
// holds over all levels, and how far the first level shrank the graph.
func hierarchyMetrics(g *graph.Graph, seed int64, rep *report, tr *tracer) {
	t := time.Now()
	levels, coarsest := multilevel.BuildHierarchy(g, coarsestSize, maxLevels, rand.New(rand.NewSource(seed)), libWidth)
	tr.add(0, 0, "multilevel.build_hierarchy", t, time.Now())
	edges := coarsest.NumEdges()
	for _, l := range levels {
		edges += l.Graph.NumEdges()
	}
	next := coarsest
	if len(levels) > 1 {
		next = levels[1].Graph
	}
	rep.set("multilevel.levels", float64(len(levels)), 0)
	rep.set("graph.hierarchy_edges", float64(edges), 0)
	rep.set("graph.level1_shrink", float64(next.NumNodes())/float64(g.NumNodes()), 0)
}

// unitCosts times single calls into the GA's inner loop on g, starting from
// the partition p the workload produced: the from-scratch partition.NewEval
// every crossover child pays, one DKNUX crossover, and the one-pass boundary
// climb the GA applies to each offspring. The V-cycle shares only
// partition.Eval with the GA, so on the V-cycle workloads these numbers show
// whether a change to that shared code reaches the GA.
func unitCosts(g *graph.Graph, p *partition.Partition, seed int64, rep *report, tr *tracer) {
	rng := rand.New(rand.NewSource(seed))
	a := ga.NewIndividual(g, p, partition.TotalCut)
	b := ga.NewIndividual(g, p.Perturb(0.15, rng), partition.TotalCut)
	x := ga.NewDKNUX(p)
	v, n := repeat(tr, "partition.new_eval", nil, func() { partition.NewEval(g, p) })
	rep.set("partition.new_eval_us", v, n)
	v, n = repeat(tr, "ga.crossover", nil, func() { x.Cross(g, a, b, rng) })
	rep.set("ga.crossover_us", v, n)
	var child *partition.Partition
	var ev *partition.Eval
	v, n = repeat(tr, "kl.hill_climb", func() {
		child = x.Cross(g, a, b, rng)
		ev = partition.NewEval(g, child)
	}, func() { kl.HillClimbEval(g, child, partition.TotalCut, 1, ev) })
	rep.set("kl.hill_climb_us", v, n)
}

// unitBudget is how long repeat times one kind of call.
const unitBudget = 200 * time.Millisecond

// repeat calls fn until unitBudget has passed, at least 3 and at most 1000
// times, running prepare (untimed) before each call. It returns the median
// call time in microseconds and the number of calls.
func repeat(tr *tracer, name string, prepare, fn func()) (float64, int) {
	var times []float64
	var spent time.Duration
	for len(times) < 3 || (spent < unitBudget && len(times) < 1000) {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.add(0, 0, name, t0, t1)
		spent += t1.Sub(t0)
		times = append(times, t1.Sub(t0).Seconds()*1e6)
	}
	return median(times), len(times)
}
