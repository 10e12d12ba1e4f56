// Package lp implements greedy size-constrained label propagation: the cheap
// coarse-level refiner of the multilevel pipeline at the million-node tier,
// in the style of KaMinPar's LP refinement (Gottesbüren et al. '21).
//
// One pass sweeps the partition boundary once and moves each node to the
// neighboring part it is most strongly connected to, provided the move
// strictly reduces the cut and the target part stays under a hard weight
// cap. That is the whole algorithm: no gain heaps, no connectivity tables,
// no move log — O(deg) per boundary node and O(1) auxiliary state per
// candidate, which is why it scales to levels where the KL/FM machinery's
// Theta(n·parts) structures dominate wall time.
//
// The sweep is parallel under the repository-wide Workers bit-identity
// contract, borrowing the colored-tile discipline of package kl: the
// boundary snapshot is walked in index-contiguous tiles, each tile's induced
// subgraph is deterministically colored (par.Color), members of one color
// class — which share no edge — are gain-evaluated concurrently over
// par-owned index ranges, and commits replay serially in ascending node
// order. The worker count changes which goroutine evaluates which member,
// never a decision, so any width yields bit-identical partitions.
package lp

import (
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/par"
	"repro/internal/partition"
)

// Config bounds a label-propagation refinement.
type Config struct {
	// MaxPasses caps the number of boundary sweeps; <= 0 selects 16 (a
	// safety bound — LP converges in a handful of passes).
	MaxPasses int
	// Workers bounds the goroutines of the colored gain evaluation (<= 0
	// selects GOMAXPROCS); a pure speed knob under the bit-identity
	// contract.
	Workers int
	// Stop, when non-nil, is polled before each pass; pass boundaries are
	// consistent states (every move goes through the Eval), so an early
	// return yields a valid, just less refined, partition.
	Stop func() bool
	// Scratch, when non-nil, supplies the sweep's working memory so
	// repeated refinements recycle buffers; results are bit-identical with
	// and without one.
	Scratch *Scratch
}

// Scratch owns Refine's working state across calls. The zero value is
// ready to use. Not safe for concurrent use.
type Scratch struct {
	s sweeper
}

// balanceFrac caps every part's weight at (1+balanceFrac) times the ideal
// (total node weight / parts). Moves may only shrink a part that is over the
// cap, never push one over it; draining inherited imbalance is the
// rebalancer's job, not LP's.
const balanceFrac = 0.02

// tileSize matches package kl's colored climb: tiles are part of the
// algorithm's definition (never derived from the worker count), so every
// width sweeps the identical (tile, color, index) order.
const tileSize = 512

// moveCand accumulates one candidate destination: the target part and the
// total weight of the member's edges into it, in first-seen neighbor order.
type moveCand struct {
	to  int32
	wTo float64
}

// workerScratch is one worker's per-part dedup state; rows are invalidated
// by bumping the stamp, never by zeroing.
type workerScratch struct {
	seen  []int32
	idx   []int32
	stamp int32
}

// sweeper carries one refinement's state; all slices are reused across
// tiles, classes, and passes.
type sweeper struct {
	classes kl.Classes // per-tile coloring + class grouping
	bsnap   []int      // per-pass ascending boundary snapshot
	off     []int32    // candidate range start per class member
	bestTo  []int32    // chosen destination per class member; -1 = stay
	cands   []moveCand
	workers []workerScratch
}

// Refine improves p in place through ev and returns the number of moves
// made. ev, when non-nil, must be in sync with p on entry; a nil ev is built
// from p, and boundary tracking is enabled if it is off. The aggregates and
// boundary stay exact move by move. The objective driven down is always the
// total edge cut — LP is the cheap coarse-level refiner, and at the levels
// it runs on, cut is the only objective whose gain is O(deg); callers
// optimizing other objectives still profit because every committed move
// strictly reduces cut without growing any part past the cap.
func Refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	if ev == nil {
		ev = partition.NewEvalBoundaryPar(g, p, cfg.Workers)
	} else if !ev.TracksBoundary() {
		ev.ResetBoundaryPar(g, p, cfg.Workers)
	}
	maxPasses := cfg.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 16
	}
	var s *sweeper
	if cfg.Scratch != nil {
		s = &cfg.Scratch.s
	} else {
		s = new(sweeper)
	}
	maxLoad := g.TotalNodeWeight() / float64(p.Parts) * (1 + balanceFrac)
	workers := par.Workers(cfg.Workers)
	if len(s.workers) < workers || (len(s.workers) > 0 && len(s.workers[0].seen) < p.Parts) {
		s.workers = make([]workerScratch, workers)
		for w := range s.workers {
			s.workers[w] = workerScratch{
				seen: make([]int32, p.Parts),
				idx:  make([]int32, p.Parts),
			}
		}
	}
	// Restart the dedup stamps every refinement: a reused scratch in a
	// long-lived process must never wrap a stamp back into a stale seen
	// entry.
	for w := range s.workers {
		sc := &s.workers[w]
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.stamp = 1
	}
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		m := s.pass(g, p, ev, workers, maxLoad)
		moves += m
		if m == 0 {
			break
		}
	}
	return moves
}

// pass sweeps the boundary once in (tile, color, ascending index) order.
func (s *sweeper) pass(g *graph.Graph, p *partition.Partition, ev *partition.Eval, workers int, maxLoad float64) int {
	s.bsnap = ev.AppendBoundary(s.bsnap)
	b := s.bsnap
	moves := 0
	for lo := 0; lo < len(b); lo += tileSize {
		hi := lo + tileSize
		if hi > len(b) {
			hi = len(b)
		}
		moves += s.sweepTile(g, p, ev, workers, maxLoad, b[lo:hi])
	}
	return moves
}

// sweepTile colors the tile's induced subgraph (kl.Classes, the grouping
// kl's colored climb uses) and sweeps its color classes in ascending color
// order: tiles run sequentially, so only intra-tile adjacency needs
// coloring.
func (s *sweeper) sweepTile(g *graph.Graph, p *partition.Partition, ev *partition.Eval, workers int, maxLoad float64, tile []int) int {
	members, off := s.classes.Group(g, tile, workers)
	moves := 0
	for cl := 0; cl < len(off)-1; cl++ {
		moves += s.sweepClass(g, p, ev, workers, maxLoad, members[off[cl]:off[cl+1]])
	}
	return moves
}

// sweepClass evaluates every member's label vote in parallel against the
// class-start state — legal because class members share no edge, so a
// member's neighborhood is untouched until its own commit slot — then
// commits serially in ascending node order under the current part weights.
func (s *sweeper) sweepClass(g *graph.Graph, p *partition.Partition, ev *partition.Eval, workers int, maxLoad float64, members []int32) int {
	m := len(members)
	s.off = ensureInt32(s.off, m+1)
	s.bestTo = ensureInt32(s.bestTo, m)
	s.off[0] = 0
	for j, v := range members {
		s.off[j+1] = s.off[j] + int32(len(g.Neighbors(int(v))))
	}
	if need := int(s.off[m]); cap(s.cands) < need {
		s.cands = make([]moveCand, need)
	} else {
		s.cands = s.cands[:need]
	}
	assign := p.Assign
	// Tiny classes run inline, like kl's sweep: evaluation writes only
	// index-owned slots, so the cutoff cannot change results.
	w := workers
	if m < 32 {
		w = 1
	}
	par.For(w, m, func(worker, lo, hi int) {
		sc := &s.workers[worker]
		for j := lo; j < hi; j++ {
			v := int(members[j])
			from := assign[v]
			base := int(s.off[j])
			k := int32(0)
			var wFrom float64
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				weight := ws[i]
				q := assign[u]
				if q == from {
					wFrom += weight
					continue
				}
				if sc.seen[q] != sc.stamp {
					sc.seen[q] = sc.stamp
					sc.idx[q] = k
					s.cands[base+int(k)] = moveCand{to: int32(q), wTo: weight}
					k++
				} else {
					s.cands[base+int(sc.idx[q])].wTo += weight
				}
			}
			sc.stamp++
			// The label vote: strongest foreign connection, first-seen order
			// breaking ties, kept only if it strictly beats the home part.
			best := int32(-1)
			bestW := wFrom
			for c := int32(0); c < k; c++ {
				if cd := s.cands[base+int(c)]; cd.wTo > bestW {
					best, bestW = cd.to, cd.wTo
				}
			}
			s.bestTo[j] = best
		}
	})
	moves := 0
	for j := 0; j < m; j++ {
		to := s.bestTo[j]
		if to < 0 {
			continue
		}
		v := int(members[j])
		// The size constraint, checked against the live weights at commit
		// time (earlier commits in this class may have filled the target).
		if ev.Weights[to]+g.NodeWeight(v) > maxLoad {
			continue
		}
		ev.Move(g, p, v, int(to))
		moves++
	}
	return moves
}

func ensureInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
