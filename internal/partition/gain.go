package partition

import "repro/internal/graph"

// This file is the single definition of the objective-parameterized move
// gain. Every fitness-driven mover — the serial boundary climber, the
// colored parallel climber, and simulated annealing's proposals — computes
// "how much does moving v to part `to` improve the objective" through these
// two methods, so the gain arithmetic of each objective exists exactly once
// in the codebase.
//
// The imbalance term is computed in closed form: of Σ_q (W(q) − W/k)² only
// the W(from) and W(to) terms change, and the ideal weight W/k cancels out
// of their difference, leaving 2·w(v)·(W(to) − W(from) + w(v)). On integer
// weights every quantity here is an integer, so the gain is exact at any
// part count k, whether or not W/k is representable, and every caller gets
// the same bits however it gathered the edge-weight triple. On fractional
// weights the gathered sums carry rounding, so callers that accumulate the
// triple differently may differ in the last bits.

// MoveGainFromWeights returns the fitness improvement of moving v to part
// `to` under objective o — positive means the move strictly improves the
// objective — for callers that already hold the weight of v's edges into its
// current part (wFrom), into `to` (wTo), and into every other part (wOther).
// The weight triple parameterization is what lets the climbers gather the
// O(deg) scan once per node, for all of its candidate parts, and fold it
// with the current aggregates at commit time.
//
// For CommVolume the edge-weight triple is irrelevant (the volume counts
// parts, not edge weight); the gain is computed from the tracked
// per-(node, part) counts with one O(deg) scan, so it always reflects the
// Eval's current state. Comm-volume tracking must be enabled.
func (ev *Eval) MoveGainFromWeights(g *graph.Graph, p *Partition, o Objective, v, to int, wFrom, wTo, wOther float64) float64 {
	from := int(p.Assign[v])

	// Imbalance delta: only W(from) and W(to) change.
	wv := g.NodeWeight(v)
	imbDelta := 2 * wv * (ev.Weights[to] - ev.Weights[from] + wv)

	switch o {
	case TotalCut:
		// Cut deltas: edges to `from` become cut, edges to `to` become
		// internal, edges to other parts transfer between C(from) and C(to).
		dFrom := wFrom - wTo - wOther
		dTo := wFrom - wTo + wOther
		// Fitness 1 counts every cut edge twice: Σ_q C(q) changes by
		// dFrom + dTo.
		return -(imbDelta + dFrom + dTo)
	case WorstCut:
		dFrom := wFrom - wTo - wOther
		dTo := wFrom - wTo + wOther
		curMax, newMax := 0.0, 0.0
		for q, cut := range ev.Cuts {
			if cut > curMax {
				curMax = cut
			}
			eff := cut
			switch q {
			case from:
				eff += dFrom
			case to:
				eff += dTo
			}
			if eff > newMax {
				newMax = eff
			}
		}
		return -(imbDelta + newMax - curMax)
	case CommVolume:
		return -(imbDelta + ev.CommVolDelta(g, p, v, to))
	default:
		panic("partition: unknown objective")
	}
}

// MoveGain is MoveGainFromWeights with the weight triple computed here, by
// one scan of v's adjacency — the form for scoring a single candidate, as
// simulated annealing's proposals do, O(deg + parts).
func (ev *Eval) MoveGain(g *graph.Graph, p *Partition, o Objective, v, to int) float64 {
	from := int(p.Assign[v])
	var wFrom, wTo, wOther float64
	if o != CommVolume { // the volume gain never consults edge weights
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			switch int(p.Assign[u]) {
			case from:
				wFrom += ws[i]
			case to:
				wTo += ws[i]
			default:
				wOther += ws[i]
			}
		}
	}
	return ev.MoveGainFromWeights(g, p, o, v, to, wFrom, wTo, wOther)
}
