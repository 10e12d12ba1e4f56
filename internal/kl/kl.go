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
package kl

import (
	"math"

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

// tracked returns the Eval the colored refiners work through: ev itself when
// non-nil, a fresh sharded build from p otherwise, with boundary tracking —
// and, under CommVolume, volume tracking — enabled if it is not already.
// Every entry point starts here, so no refiner needs an untracked fallback.
func tracked(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) *partition.Eval {
	if ev == nil {
		ev = partition.NewEvalBoundaryPar(g, p, cfg.Workers)
	} else if !ev.TracksBoundary() {
		ev.ResetBoundaryPar(g, p, cfg.Workers)
	}
	if cfg.Objective == partition.CommVolume && !ev.TracksCommVol() {
		ev.ResetCommVolPar(g, p, cfg.Workers)
	}
	return ev
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
// Move deltas are computed incrementally in O(deg(v) + parts) from ev, the
// partition's cached aggregates (the GA engine keeps one Eval per
// individual), which every move keeps in sync, so the GA can afford hill
// climbing on every offspring and read the final fitness straight from ev. A
// nil ev is rebuilt from p.
func HillClimbEval(g *graph.Graph, p *partition.Partition, o partition.Objective, maxPasses int, ev *partition.Eval) int {
	if ev == nil {
		ev = partition.NewEval(g, p)
	}
	if o == partition.CommVolume && !ev.TracksCommVol() {
		ev.EnableCommVol(g, p)
	}
	c := &climber{
		g:   g,
		p:   p,
		o:   o,
		ev:  ev,
		avg: g.TotalNodeWeight() / float64(p.Parts),
	}
	return c.climb(maxPasses)
}

func (c *climber) climb(maxPasses int) int {
	moves := 0
	for pass := 0; maxPasses <= 0 || pass < maxPasses; pass++ {
		improved := false
		for _, v := range c.boundary() {
			if c.tryBestMove(v) {
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return moves
}

// boundary snapshots the boundary at pass start: from the Eval's tracked set
// in O(b log b) when available, otherwise by the O(V+E) scan. Both yield the
// boundary nodes in increasing order, so the climb visits identical nodes in
// identical order either way — tracking changes the cost, never the result.
func (c *climber) boundary() []int {
	if c.ev.TracksBoundary() {
		return c.ev.Boundary()
	}
	return c.p.BoundaryNodes(c.g)
}

// climber walks a partition together with its cached per-part weights and
// cuts (partition.Eval) so single-node move deltas are incremental.
type climber struct {
	g   *graph.Graph
	p   *partition.Partition
	o   partition.Objective
	ev  *partition.Eval
	avg float64
}

// moveDelta returns the fitness improvement of moving v to part `to`,
// computed through the objective-parameterized gain definition shared by
// every refiner (partition.Eval.MoveGain).
func (c *climber) moveDelta(v, to int) float64 {
	return c.ev.MoveGain(c.g, c.p, c.o, c.avg, v, to)
}

// tryBestMove moves v to the neighboring part that most improves fitness, if
// any strictly does, updating the cached state. Candidate parts are examined
// in neighbor order (ties go to the earliest), keeping the climb fully
// deterministic. The winning move is applied through Eval.Move so the
// aggregates — and the boundary set, when tracked — stay exact.
func (c *climber) tryBestMove(v int) bool {
	from := int(c.p.Assign[v])
	var tried [8]int // dedup scratch; spills to append for high-degree nodes
	cand := tried[:0]
	bestTo := -1
	var bestFit float64
scan:
	for _, u := range c.g.Neighbors(v) {
		to := int(c.p.Assign[u])
		if to == from {
			continue
		}
		for _, q := range cand {
			if q == to {
				continue scan
			}
		}
		cand = append(cand, to)
		fit := c.moveDelta(v, to)
		if fit > 1e-12 && (bestTo < 0 || fit > bestFit) {
			bestTo, bestFit = to, fit
		}
	}
	if bestTo < 0 {
		return false
	}
	c.ev.Move(c.g, c.p, v, bestTo)
	return true
}

// Refine improves a k-way partition in place: the colored boundary climb
// (Climb) under cfg, then — unless cfg.Stop cut the climb short, in which
// case the caller asked for the soonest consistent state — a Rebalance to
// undo any weight skew the climb introduced. ev, when non-nil, must be in
// sync with p; it stays exactly in sync with every move (rebalancing moves
// included), so a caller can chain refinements — the multilevel pipeline
// projects one Eval down its whole uncoarsening hierarchy this way, because
// projection changes neither part weights nor part cuts. A nil ev is built
// from p by the sharded parallel scan.
func Refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) {
	ev = tracked(g, p, ev, cfg)
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
	ev = tracked(g, p, ev, cfg)
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
