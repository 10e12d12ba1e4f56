// The colored boundary sweep: the uncoarsening-phase refiners of the
// multilevel pipeline, parallelized without giving up the repository-wide
// Workers determinism contract.
//
// The serial climb (HillClimbEval) visits the boundary in ascending node
// order and takes each node's best strictly-improving move immediately, so
// every decision depends on all earlier ones — an inherently sequential
// chain. The colored sweep breaks the chain where it is provably slack: each
// pass walks the boundary in index-contiguous tiles, and a deterministic
// coloring of each tile's induced subgraph (classes: first-fit in descending
// hashed-priority order, the coloring Jones–Plassmann would give) splits
// the tile into color classes with no internal edges, so within a class no
// committed move can change another member's neighborhood. That makes the
// expensive per-node work — the O(deg) gather of each member's candidate
// parts and the edge weight into each — a pure function of the class-start
// state, computed in parallel over par-owned index ranges. What a class does
// with its candidates is the sweep's rule, in two pieces: an evaluation per
// member, run inside the parallel gather, and a serial commit that replays
// the class through the partition.Eval, so the aggregates stay exact move by
// move. Two rules run on the sweep:
//
//   - Climb, boundary hill climbing. Each member's provisional best gain
//     against the class-start aggregates orders the commit: descending gain,
//     ascending node id on ties, every candidate re-evaluated against the
//     current part weights (and cuts) and a move taken only if it strictly
//     improves the fitness. The climb is therefore the serial climb run over
//     a deterministic permutation of each pass's boundary — (tile, color,
//     gain) order instead of pure index order — which preserves its
//     properties (monotone fitness, convergence to a single-move local
//     optimum; at tile size 1 it IS the serial climb bit for bit).
//   - Propagate, size-constrained label propagation in the style of
//     KaMinPar (Gottesbüren et al. '21). Each member votes for the part it
//     is most strongly connected to, and the class commits in ascending node
//     order, moving a member only if its vote strictly beats its home part
//     and the target stays under a hard weight cap. No gain function and no
//     move log: O(deg) per boundary node, which is why it refines the
//     million-node levels, where KL/FM's Theta(n·parts) structures dominate.
//
// Either way the result is a pure function of (graph, partition, rule): the
// worker count changes only which goroutine gathers which class member's
// candidates, never a decision — pinned by the width bit-identity tests in
// this package and downstream in multilevel and algo.
package kl

import (
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Climb performs boundary hill climbing on the colored sweep described
// above, spreading the gather over cfg.Workers goroutines. Like
// HillClimbEval it climbs until no move improves cfg.Objective or
// cfg.MaxPasses passes complete, keeps ev (built from p when nil) exactly in
// sync, and returns the number of moves made; cfg.Stop is polled before each
// pass.
//
// The visit order within a pass is (tile, color class, descending
// provisional gain) rather than the serial climb's pure ascending order, so
// the two climbers are distinct (deterministic) algorithms that converge to
// local optima of equal character but not necessarily bit-equal partitions.
// The GA's offspring climbing keeps the serial sweep; the multilevel
// uncoarsening phase and the flat kl registry algorithm use this one.
func Climb(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	s := sweepPool.Get().(*sweeper)
	defer sweepPool.Put(s)
	return s.climb(g, p, ev, cfg)
}

// Propagate refines p by size-constrained label propagation on the colored
// sweep and returns the number of moves made. A pass moves each boundary
// node to the foreign part it has the most edge weight into (ties to the
// part its neighbor order reaches first) when that beats its own part
// strictly and keeps the target's live weight within 1.02·W/k; draining
// inherited imbalance is Rebalance's job. The objective driven down is
// always the total edge cut, whatever cfg.Objective: at the levels Propagate
// runs on, cut is the only objective whose gain is O(deg), and every move
// strictly reduces it without pushing a part over the cap. cfg.MaxPasses <=
// 0 selects 16 passes; cfg.Stop is polled before each pass, and ev (built
// from p when nil) stays exactly in sync, as in Climb.
func Propagate(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	s := sweepPool.Get().(*sweeper)
	defer sweepPool.Put(s)
	return s.propagate(g, p, ev, cfg)
}

const (
	// balanceFrac sets Propagate's hard cap: no move may push a part past
	// (1+balanceFrac) times the ideal weight W/k.
	balanceFrac = 0.02
	// propagatePasses bounds Propagate when cfg.MaxPasses <= 0 — a safety
	// bound, since label propagation converges in a handful of passes.
	propagatePasses = 16
)

// sweepPool recycles sweepers across Climb and Propagate calls: the
// multilevel uncoarsening phase sweeps two or three times per level, and the
// O(n) coloring index plus the tile/class buffers otherwise reallocate at
// every one. Pooled state never changes results: every buffer is either
// fully rewritten before it is read (cands, off, ...), restored to its zero
// invariant by the previous sweep (classes' bIndex), or reset when a sweep
// starts (the dedup stamps).
var sweepPool = sync.Pool{New: func() any { return new(sweeper) }}

// moveCand is one candidate destination of a gathered node: the target part
// and the total weight of the node's edges into it. A gather lists them in
// first-seen neighbor order, the order both climbs try them in (ties go to
// the earliest).
type moveCand struct {
	to  int32
	wTo float64
}

// classScratch is the per-part dedup scratch of candidate accumulation, one
// per sweep worker and one per serial climb; rows are invalidated by bumping
// the stamp, never by zeroing.
type classScratch struct {
	seen  []int32 // seen[q] == stamp: part q already has a candidate slot
	idx   []int32 // its index within the node's candidate range
	stamp int32
}

// reset readies sc for partitions of `parts` parts: rows at least that long,
// every stamp restarted, so a recycled scratch can never wrap a stamp into a
// stale seen entry.
func (sc *classScratch) reset(parts int) {
	if len(sc.seen) < parts {
		sc.seen = make([]int32, parts)
		sc.idx = make([]int32, parts)
	} else {
		clear(sc.seen)
	}
	sc.stamp = 1
}

// gather is the one connectivity scan of both climbers: it appends v's
// foreign parts — its neighbors' parts other than its own — to the empty
// slice cands, in first-seen neighbor order, each with the total weight of
// v's edges into it, and returns them with the weight of v's edges into its
// own part and in total. cands needs room for at most deg(v) entries; with
// that capacity (the colored sweep passes each member's index-owned range)
// the gather writes nothing outside it.
func (sc *classScratch) gather(g *graph.Graph, assign []uint16, v int, cands []moveCand) ([]moveCand, float64, float64) {
	from := assign[v]
	var wFrom, wTot float64
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		w := ws[i]
		wTot += w
		q := assign[u]
		if q == from {
			wFrom += w
			continue
		}
		if sc.seen[q] != sc.stamp {
			sc.seen[q] = sc.stamp
			sc.idx[q] = int32(len(cands))
			cands = append(cands, moveCand{to: int32(q), wTo: w})
		} else {
			cands[sc.idx[q]].wTo += w
		}
	}
	sc.stamp++
	return cands, wFrom, wTot
}

// sweeper carries the state of one colored sweep. All slices are scratch
// reused across classes, passes, and (through sweepPool) sweeps.
type sweeper struct {
	g       *graph.Graph
	p       *partition.Partition
	ev      *partition.Eval
	workers int

	classes classes // per-tile coloring + class grouping
	bsnap   []int   // per-pass boundary snapshot buffer
	scratch []classScratch

	// Per class member j: its candidates cands[off[j]:off[j]+cnt[j]], the
	// weight of its edges into its own part and in total, and the rule's
	// eval of it (to, score).
	off   []int32
	cnt   []int32
	wFrom []float64
	wTot  []float64
	cands []moveCand
	to    []int32
	score []float64

	order    []keyedMember // Climb's class commit order
	orderTmp []keyedMember // its sort scratch
}

// rule is what a sweep does with a color class once its members'
// candidates are gathered. eval runs inside the parallel gather, once per
// member j (node v), against the class-start state, and returns the
// member's preferred destination (-1: none) and a score, which the sweep
// stores in to[j] and score[j]; it must write nothing else. commit then
// replays the class serially through the Eval and returns the moves made.
type rule interface {
	eval(s *sweeper, j, v int) (to int32, score float64)
	commit(s *sweeper, members []int32) int
}

// climb is Climb on this sweeper.
func (s *sweeper) climb(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	r := climbRule{o: cfg.Objective}
	return s.run(g, p, ev, cfg, cfg.MaxPasses, r)
}

// propagate is Propagate on this sweeper.
func (s *sweeper) propagate(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	maxPasses := cfg.MaxPasses
	if maxPasses <= 0 {
		maxPasses = propagatePasses
	}
	r := propagateRule{maxLoad: g.TotalNodeWeight() / float64(p.Parts) * (1 + balanceFrac)}
	return s.run(g, p, ev, cfg, maxPasses, r)
}

// run sweeps the boundary with r until a pass moves nothing or maxPasses
// passes complete (<= 0: no bound), polling cfg.Stop before each pass, and
// returns the number of moves. ev is prepared by partition.Tracked.
func (s *sweeper) run(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config, maxPasses int, r rule) int {
	s.g, s.p, s.ev = g, p, partition.Tracked(g, p, ev, cfg.Objective, cfg.Workers)
	s.workers = par.Workers(cfg.Workers)
	// A recycled sweeper's dedup rows carry stamps from earlier sweeps.
	if len(s.scratch) < s.workers {
		s.scratch = make([]classScratch, s.workers)
	}
	for w := range s.scratch {
		s.scratch[w].reset(p.Parts)
	}
	moves := 0
	for pass := 0; maxPasses <= 0 || pass < maxPasses; pass++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		m := s.pass(r)
		moves += m
		if m == 0 {
			break
		}
	}
	s.g, s.p, s.ev = nil, nil, nil
	return moves
}

// tileSize is the number of consecutive boundary nodes one colored tile
// spans. Tiles are processed sequentially in ascending index order and only
// a tile's interior is class-batched, so the sweep's decision order tracks
// the serial climb's ascending sweep at tile granularity — cascades of
// improving moves propagate tile to tile within a single pass, which is
// what keeps the colored climb's quality at the serial climb's level. The
// size is a fixed constant (never derived from the worker count): the tile
// grid is part of the algorithm's definition, so every width sweeps the
// identical order.
const tileSize = 512

// pass snapshots the boundary and sweeps it in ascending index order, one
// tile at a time, each tile's color classes in ascending color order.
// Adjacent nodes in different tiles are never evaluated concurrently (tiles
// run sequentially), so only intra-tile adjacency needs coloring. It returns
// the number of moves.
func (s *sweeper) pass(r rule) int {
	s.bsnap = s.ev.AppendBoundary(s.bsnap)
	b := s.bsnap // ascending snapshot
	moves := 0
	for lo := 0; lo < len(b); lo += tileSize {
		members, off := s.classes.group(s.g, b[lo:min(lo+tileSize, len(b))])
		for cl := 0; cl < len(off)-1; cl++ {
			moves += s.sweepClass(r, members[off[cl]:off[cl+1]])
		}
	}
	return moves
}

// sweepClass gathers every class member's candidates and runs r's eval on
// them in parallel against the class-start state, then hands the class to
// r's serial commit.
func (s *sweeper) sweepClass(r rule, members []int32) int {
	m := len(members)
	s.off = ensureInt32(s.off, m+1)
	s.cnt = ensureInt32(s.cnt, m)
	s.wFrom = ensureFloat(s.wFrom, m)
	s.wTot = ensureFloat(s.wTot, m)
	s.to = ensureInt32(s.to, m)
	s.score = ensureFloat(s.score, m)
	s.off[0] = 0
	for j, v := range members {
		s.off[j+1] = s.off[j] + int32(len(s.g.Neighbors(int(v))))
	}
	if need := int(s.off[m]); cap(s.cands) < need {
		s.cands = make([]moveCand, need)
	} else {
		s.cands = s.cands[:need]
	}
	// Tiny classes run inline: the gather is a pure function into
	// index-owned slots either way (so the cutoff cannot change results),
	// and goroutine handoff would cost more than the work itself.
	workers := s.workers
	if m < 32 {
		workers = 1
	}
	par.For(workers, m, func(worker, lo, hi int) {
		sc := &s.scratch[worker]
		for j := lo; j < hi; j++ {
			v := int(members[j])
			base, end := s.off[j], s.off[j+1]
			cands, wf, wt := sc.gather(s.g, s.p.Assign, v, s.cands[base:base:end])
			s.cnt[j], s.wFrom[j], s.wTot[j] = int32(len(cands)), wf, wt
			s.to[j], s.score[j] = r.eval(s, j, v)
		}
	})
	return r.commit(s, members)
}

// candidates returns class member j's gathered candidates.
func (s *sweeper) candidates(j int) []moveCand {
	return s.cands[s.off[j] : s.off[j]+s.cnt[j]]
}

// climbRule is Climb's rule: fitness gains through the shared gain
// definition (partition.Eval.MoveGainFromWeights) under objective o.
type climbRule struct {
	o partition.Objective
}

// eval is member j's provisional best move against the class-start
// aggregates (ev is read-only during the gather). It costs the commit no
// serial work, and being a pure function of class-start state, it makes the
// commit order width-independent like everything else here.
func (r climbRule) eval(s *sweeper, j, v int) (int32, float64) {
	wf, wt := s.wFrom[j], s.wTot[j]
	bestTo, best := int32(-1), math.Inf(-1)
	for _, cd := range s.candidates(j) {
		wOther := wt - wf - cd.wTo
		if fit := s.ev.MoveGainFromWeights(s.g, s.p, r.o, v, int(cd.to), wf, cd.wTo, wOther); fit > best {
			bestTo, best = cd.to, fit
		}
	}
	return bestTo, best
}

// commit replays the class in descending provisional gain, ascending node id
// on ties. Committing big winners first harvests more of a class's gain
// before the members' moves interact (the same greedy order FM's heap
// imposes globally); commitBest still re-evaluates every candidate against
// the live aggregates at its commit slot, so correctness and the
// strict-improvement rule are unchanged — only the order in which members
// get their slot.
//
// Members are ascending within a class, so their indices j are the id
// tie-break: the order is a stable sort of the members by gainKey, whose
// integer order is the gains' descending order under cmp.Compare (NaN
// last, -0 tied with +0). The order is total, hence one fixed point for any
// width.
func (r climbRule) commit(s *sweeper, members []int32) int {
	moves := 0
	for _, o := range s.commitOrder(len(members)) {
		if r.commitBest(s, int(o.j), int(members[o.j])) {
			moves++
		}
	}
	return moves
}

// commitOrder returns class members 0..m-1 in Climb's commit order, by their
// gains in s.score.
func (s *sweeper) commitOrder(m int) []keyedMember {
	order := s.order[:0]
	for j, score := range s.score[:m] {
		order = append(order, keyedMember{key: gainKey(score), j: int32(j)})
	}
	s.order = order
	s.orderTmp = sortStable(order, s.orderTmp)
	return order
}

// commitBest folds class member j's gathered edge weights with the current
// aggregates through the shared gain definition, picks the best
// strictly-improving destination with the serial climb's exact tie rules
// (candidates in first-seen neighbor order, strict improvement only), and
// applies it through ev so the aggregates and boundary stay exact.
//
// The gathered weights are still valid here even though earlier members of
// the class may have moved: class members share no edge, so a member's
// neighborhood is untouched until its own commit slot. The CommVolume gain
// ignores them and rescans v's neighbor counts inside MoveGainFromWeights —
// against the Eval's current state, which is exactly the serial semantics
// (and still sound under the no-shared-edge guarantee).
func (r climbRule) commitBest(s *sweeper, j, v int) bool {
	to := bestMove(s.g, s.p, s.ev, r.o, v, s.candidates(j), s.wFrom[j], s.wTot[j])
	if to < 0 {
		return false
	}
	s.ev.Move(s.g, s.p, v, to)
	return true
}

// propagateRule is Propagate's rule: strongest-connection votes committed
// under the part weight cap maxLoad.
type propagateRule struct {
	maxLoad float64 // (1+balanceFrac)·W/k
}

// eval is member j's label vote: its strongest foreign connection, the
// first-seen part winning ties, kept only if it strictly beats the weight of
// the member's edges into its own part.
func (r propagateRule) eval(s *sweeper, j, _ int) (int32, float64) {
	best, bestW := int32(-1), s.wFrom[j]
	for _, cd := range s.candidates(j) {
		if cd.wTo > bestW {
			best, bestW = cd.to, cd.wTo
		}
	}
	return best, bestW
}

// commit moves the voting members in ascending node order, each only if its
// target stays under the cap by the live weights (earlier commits in this
// class may have filled it).
func (r propagateRule) commit(s *sweeper, members []int32) int {
	moves := 0
	for j, v := range members {
		to := s.to[j]
		if to < 0 || s.ev.Weights[to]+s.g.NodeWeight(int(v)) > r.maxLoad {
			continue
		}
		s.ev.Move(s.g, s.p, int(v), int(to))
		moves++
	}
	return moves
}

// rebalCand is a candidate of the parallel rebalance argmax; the total order
// (score descending, node id ascending) makes the reduction independent of
// both visit order and worker count.
type rebalCand struct {
	v     int
	score float64
}

func betterRebal(a, b rebalCand) rebalCand {
	if b.v < 0 {
		return a
	}
	if a.v < 0 || b.score > a.score || (b.score == a.score && b.v < a.v) {
		return b
	}
	return a
}

func ensureInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensureFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
