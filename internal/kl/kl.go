// Package kl provides the boundary hill climbing of the paper's §3.6 ("only
// the boundary points of each part are examined to see if migrating them to
// the appropriate neighboring part improves fitness") in two schedules, plus
// the weight-balance restorer every refiner ends with (Rebalance):
//
//   - the serial climb the GA applies to every offspring (HillClimbEval);
//   - the colored, width-deterministic boundary sweep of the multilevel
//     uncoarsening phase, one sweep with two rules on it: hill climbing
//     (Climb, and Refine, which rebalances after it) and size-constrained
//     label propagation (Propagate), the cheap refiner of the million-node
//     levels.
//
// Both climbs read a visited node's adjacency once: one gather lists its
// candidate parts in first-seen neighbor order, each with the weight of the
// node's edges into it, and every candidate's gain is folded from those
// weights by the shared gain definition (partition.Eval.MoveGainFromWeights),
// the weight into the remaining parts being the gathered total minus the
// two. On integer weights, which every generator, contraction and METIS
// input has, every gain is exact. On fractional weights a gain may differ in
// the last bits from one computed by a separate scan per candidate,
// deterministically for a given input.
package kl

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Config parameterizes the colored refiners Climb, Propagate, Refine, and
// Rebalance, mirroring fm.Config.
type Config struct {
	// Objective selects the fitness the climb's gains target, and the
	// node-cost model Rebalance scores its candidates by. Propagate always
	// drives the edge cut.
	Objective partition.Objective
	// MaxPasses caps the sweep passes; <= 0 climbs until no move improves
	// (Propagate: 16 passes, a safety bound).
	MaxPasses int
	// Workers bounds the goroutines of the sweep's gather, the Eval
	// rebuilds, and the rebalance argmax (<= 0 selects GOMAXPROCS). A pure
	// speed knob: results are bit-identical at every width.
	Workers int
	// Stop, when non-nil, is polled before each sweep pass. Pass
	// boundaries are consistent states (every move goes through the Eval), so
	// an early return yields a valid, just less refined, partition. Rebalance
	// does not poll it.
	Stop func() bool
}

// HillClimbEval performs steepest-descent boundary migration on p in place
// until no single-node move improves the fitness o, or maxPasses passes
// complete (maxPasses <= 0 means unlimited). It returns the number of moves
// made.
//
// Each pass scans the boundary nodes in ascending order; for each, it
// evaluates moving the node to every neighboring part and takes the best
// strictly-improving move. This is exactly the paper's hill-climbing step:
// offspring are driven to the nearest local optimum of the fitness function.
// One gather of the node's adjacency lists its candidate parts in first-seen
// neighbor order (ties go to the earliest), with the edge weight into each,
// and every candidate's gain is folded from those weights and ev, the
// partition's cached aggregates (the GA engine keeps one Eval per
// individual), which every move keeps in sync — O(deg(v)) per node plus
// O(1) per candidate under TotalCut, so the GA can afford hill climbing on
// every offspring and read the final fitness straight from ev. A nil ev is
// rebuilt from p. Each pass snapshots the boundary from ev when it tracks
// the boundary set, as the GA's Evals do whenever it climbs; under the cut
// objectives an untracked ev stays untracked, and each pass finds the
// boundary by scanning p instead. CommVolume's gains need the Eval's volume
// counts, which are built here when missing.
//
// On fractional weights its gains may differ in the last bits from those of
// a climb that rescans the adjacency for every candidate (see the package
// comment), so a near tie may be decided differently; on integer weights the
// two climbs are identical move for move.
func HillClimbEval(g *graph.Graph, p *partition.Partition, o partition.Objective, maxPasses int, ev *partition.Eval) int {
	switch {
	case o == partition.CommVolume:
		ev = partition.Tracked(g, p, ev, o, 1)
	case ev == nil:
		ev = partition.NewEval(g, p)
	}
	c := climbers.Get().(*climber)
	defer climbers.Put(c)
	return c.climb(g, p, o, ev, maxPasses)
}

// climbers recycles the serial climb's buffers: the GA climbs every
// offspring, so a fresh boundary snapshot, dedup rows and candidate list per
// climb would be several allocations per child.
var climbers = sync.Pool{New: func() any { return new(climber) }}

// climber walks a partition together with its cached per-part weights and
// cuts (partition.Eval) so single-node move gains are incremental, plus the
// climb's reusable buffers.
type climber struct {
	g  *graph.Graph
	p  *partition.Partition
	o  partition.Objective
	ev *partition.Eval

	snap  []int        // the pass's boundary snapshot
	sc    classScratch // the gather's dedup rows
	cands []moveCand   // the visited node's candidates
}

func (c *climber) climb(g *graph.Graph, p *partition.Partition, o partition.Objective, ev *partition.Eval, maxPasses int) int {
	c.g, c.p, c.o, c.ev = g, p, o, ev
	c.sc.reset(p.Parts)
	moves := 0
	for pass := 0; maxPasses <= 0 || pass < maxPasses; pass++ {
		improved := false
		c.snap = c.boundary(c.snap)
		for _, v := range c.snap {
			if c.tryBestMove(v) {
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	c.g, c.p, c.ev = nil, nil, nil
	return moves
}

// boundary snapshots the boundary at pass start: from the Eval's tracked set
// into buf when available, otherwise by the O(V+E) scan. Both yield the
// boundary nodes in increasing order, so the climb visits identical nodes in
// identical order either way — tracking changes the cost, never the result.
func (c *climber) boundary(buf []int) []int {
	if c.ev.TracksBoundary() {
		return c.ev.AppendBoundary(buf)
	}
	return c.p.BoundaryNodes(c.g)
}

// tryBestMove moves v to the neighboring part that most improves fitness, if
// any strictly does, updating the cached state. The winning move is applied
// through Eval.Move so the aggregates — and the boundary set, when tracked —
// stay exact.
func (c *climber) tryBestMove(v int) bool {
	var wFrom, wTot float64
	c.cands, wFrom, wTot = c.sc.gather(c.g, c.p.Assign, v, c.cands[:0])
	to := bestMove(c.g, c.p, c.ev, c.o, v, c.cands, wFrom, wTot)
	if to < 0 {
		return false
	}
	c.ev.Move(c.g, c.p, v, to)
	return true
}

// bestMove returns the candidate destination of v that most improves
// objective o against ev's current aggregates, or -1 when none strictly
// does. cands are v's gathered candidates and wFrom, wTot the weight of its
// edges into its own part and in total; candidates are tried in order, so
// ties go to the earliest — the climbers' shared tie rule, which keeps them
// fully deterministic.
func bestMove(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective, v int, cands []moveCand, wFrom, wTot float64) int {
	bestTo := -1
	var bestFit float64
	for _, cd := range cands {
		to := int(cd.to)
		fit := ev.MoveGainFromWeights(g, p, o, v, to, wFrom, cd.wTo, wTot-wFrom-cd.wTo)
		if fit > 1e-12 && (bestTo < 0 || fit > bestFit) {
			bestTo, bestFit = to, fit
		}
	}
	return bestTo
}

// Refine improves a k-way partition in place: the colored boundary climb
// (Climb) under cfg, then — unless cfg.Stop cut the climb short, in which
// case the caller asked for the soonest consistent state — a Rebalance to
// undo any weight skew the climb introduced. ev, when non-nil, must be in
// sync with p; it stays exactly in sync with every move (rebalancing moves
// included), so a caller can chain refinements — the multilevel pipeline
// projects one Eval down its whole uncoarsening hierarchy this way, because
// projection changes neither part weights nor part cuts. ev is prepared by
// partition.Tracked, so a nil ev is built from p.
func Refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) {
	ev = partition.Tracked(g, p, ev, cfg.Objective, cfg.Workers)
	Climb(g, p, ev, cfg)
	if cfg.Stop != nil && cfg.Stop() {
		return
	}
	Rebalance(g, p, ev, cfg)
}

// Rebalance enforces near-perfect weight balance on p without any
// cut-improving ambition, so refiners that tolerate transient imbalance (the
// climb, FM's slack, label propagation, projections from weighted coarse
// levels) can restore the contract afterwards. It moves cheapest boundary
// nodes out of overweight parts until no part exceeds the ideal weight W/k
// by more than the heaviest single node — the resolution limit of
// single-node moves, and exactly the "ideal count + 1" rule on unit weights.
// Balancing weight rather than node count is what makes the coarse levels of
// the multilevel pipeline (where node weights are member counts) and
// weighted workloads come out right. ev (built from p when nil) is kept in
// sync with every move.
//
// cfg.Objective selects the node-cost model: the cut objectives score a
// candidate by edge weight (edges gained into the destination minus edges
// left behind), CommVolume by the negated volume delta of the move. Each
// iteration's argmax is reduced over cfg.Workers goroutines; par.Reduce's
// fixed chunk grid plus the scan's total order (score descending, node id
// ascending) make the winner independent of visit order and width, so every
// width picks exactly the same nodes.
func Rebalance(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) {
	ev = partition.Tracked(g, p, ev, cfg.Objective, cfg.Workers)
	n := g.NumNodes()
	ideal := g.TotalNodeWeight() / float64(p.Parts)
	var maxNodeW float64
	for v := 0; v < n; v++ {
		if w := g.NodeWeight(v); w > maxNodeW {
			maxNodeW = w
		}
	}
	weights := ev.Weights
	for iter := 0; iter < n; iter++ {
		over, under := -1, -1
		for q, w := range weights {
			if w > ideal+maxNodeW && (over < 0 || w > weights[over]) {
				over = q
			}
			if under < 0 || w < weights[under] {
				under = q
			}
		}
		if over < 0 {
			return
		}
		// Cheapest node of part `over` to move to `under`: maximize
		// (edges into under) - (edges inside over). Ties go to the smallest
		// node id, so the pick is deterministic whatever order the boundary
		// is visited in — which lets the tracked set be consumed unsorted and
		// sharded across workers, O(b) per move with no sorting.
		score := func(v int) (float64, bool) {
			if int(p.Assign[v]) != over {
				return 0, false
			}
			if cfg.Objective == partition.CommVolume {
				return -ev.CommVolDelta(g, p, v, under), true
			}
			var s float64
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				switch int(p.Assign[u]) {
				case under:
					s += ws[i]
				case over:
					s -= ws[i]
				}
			}
			return s, true
		}
		best := par.Reduce(cfg.Workers, ev.BoundaryLen(), rebalCand{v: -1, score: math.Inf(-1)},
			func(acc rebalCand, i int) rebalCand {
				v := ev.BoundaryNode(i)
				s, ok := score(v)
				if !ok {
					return acc
				}
				return betterRebal(acc, rebalCand{v: v, score: s})
			}, betterRebal)
		bestV := best.v
		if bestV < 0 {
			// No boundary node in the overweight part touches anything:
			// move an arbitrary node (disconnected part).
			for v := 0; v < n; v++ {
				if int(p.Assign[v]) == over {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				return
			}
		}
		// The move strictly shrinks the over/under spread, so the loop cannot
		// oscillate: over only triggers when W(over) > ideal + maxNodeW,
		// under never exceeds the ideal (the minimum is at most the mean),
		// and the moved node weighs at most maxNodeW.
		ev.Move(g, p, bestV, under)
	}
}
