package partition

import "repro/internal/graph"

// This file is the single definition of the objective-parameterized move
// gain. Every fitness-driven mover — the serial boundary climber, the
// colored parallel climber, and simulated annealing's proposals — computes
// "how much does moving v to part `to` improve the objective" through these
// two methods, so the gain arithmetic of each objective exists exactly once
// in the codebase.
//
// The floating-point expressions of the TotalCut and WorstCut cases are the
// refiners' historical ones, verbatim: float addition is not associative, so
// re-grouping `-(imbDelta + dFrom + dTo)` would change last bits and break
// the bit-identity contract every committed edge-cut baseline pins.

// MoveGainFromWeights returns the fitness improvement of moving v to part
// `to` under objective o — positive means the move strictly improves the
// objective — for callers that already hold the weight of v's edges into its
// current part (wFrom), into `to` (wTo), and into every other part (wOther).
// avg is the ideal part weight W/k. The weight triple parameterization is
// what lets the colored climber precompute the expensive O(deg) scan in
// parallel and fold it with the current aggregates at commit time.
//
// For CommVolume the edge-weight triple is irrelevant (the volume counts
// parts, not edge weight); the gain is computed from the tracked
// per-(node, part) counts with one O(deg) scan, so it always reflects the
// Eval's current state. Comm-volume tracking must be enabled.
func (ev *Eval) MoveGainFromWeights(g *graph.Graph, p *Partition, o Objective, avg float64, v, to int, wFrom, wTo, wOther float64) float64 {
	from := int(p.Assign[v])

	// Imbalance delta: only W(from) and W(to) change.
	wv := g.NodeWeight(v)
	before := sq(ev.Weights[from]-avg) + sq(ev.Weights[to]-avg)
	after := sq(ev.Weights[from]-wv-avg) + sq(ev.Weights[to]+wv-avg)
	imbDelta := after - before

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
// one scan of v's adjacency — the form the serial climber uses, O(deg + parts)
// per candidate.
func (ev *Eval) MoveGain(g *graph.Graph, p *Partition, o Objective, avg float64, v, to int) float64 {
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
	return ev.MoveGainFromWeights(g, p, o, avg, v, to, wFrom, wTo, wOther)
}

func sq(x float64) float64 { return x * x }
