// Colored parallel boundary hill climbing: the uncoarsening-phase refiner of
// the multilevel pipeline, parallelized without giving up the repository-wide
// Workers determinism contract.
//
// The serial climb (HillClimbEval) visits the boundary in ascending node
// order and takes each node's best strictly-improving move immediately, so
// every decision depends on all earlier ones — an inherently sequential
// chain. The colored climb breaks the chain where it is provably slack: each
// pass walks the boundary in index-contiguous tiles, and a deterministic
// coloring of each tile's induced subgraph (par.Color) splits the tile into
// color classes with no internal edges, so within a class no committed move
// can change another member's neighborhood. That makes the expensive
// per-node work — the O(deg) scan producing each member's candidate parts
// and cut deltas — a pure function of the class-start state, evaluated in
// parallel over par-owned index ranges. Commits then replay serially within
// the class in descending provisional-gain order (biggest class-start winner
// first, ascending node id on ties), folding each candidate's cut deltas
// with the *current* part weights (and cuts), so a class sweep is exactly a
// serial sweep of its members and a move is taken only if it strictly
// improves the fitness at commit time; the partition.Eval aggregates stay
// exact move by move.
//
// The whole climb is therefore the serial climb run over a deterministic
// permutation of each pass's boundary — (tile, color, gain) order instead
// of pure index order — which preserves its properties (monotone fitness,
// convergence to a single-move local optimum; at tile size 1 it IS the
// serial climb bit for bit) while exposing class-sized batches of gain
// evaluation to the worker pool. The result is a pure function of (graph,
// partition, objective): the worker count changes only which goroutine
// computes which class member's deltas, never a decision — pinned by the
// width bit-identity tests in this package and downstream in multilevel and
// algo.
package kl

import (
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Climb performs boundary hill climbing with the colored parallel sweep
// described above, spreading gain evaluation over cfg.Workers goroutines.
// Like HillClimbEval it climbs until no move improves cfg.Objective or
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
	ev = tracked(g, p, ev, cfg)
	c := climberPool.Get().(*colorClimber)
	c.g = g
	c.p = p
	c.o = cfg.Objective
	c.ev = ev
	c.avg = g.TotalNodeWeight() / float64(p.Parts)
	c.workers = par.Workers(cfg.Workers)
	// Pooled class scratch carries stamps from earlier climbs; restart them
	// so a long-lived process can never wrap a stamp into a stale seen entry
	// (and so a scratch sized for fewer parts is rebuilt).
	if len(c.scratch) > 0 && len(c.scratch[0].seen) >= p.Parts {
		for w := range c.scratch {
			sc := &c.scratch[w]
			for i := range sc.seen {
				sc.seen[i] = 0
			}
			sc.stamp = 1
		}
	} else {
		c.scratch = nil
	}
	moves := 0
	for pass := 0; cfg.MaxPasses <= 0 || pass < cfg.MaxPasses; pass++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		m := c.pass()
		moves += m
		if m == 0 {
			break
		}
	}
	c.g, c.p, c.ev = nil, nil, nil
	climberPool.Put(c)
	return moves
}

// climberPool recycles colorClimber scratch across climbs: the multilevel
// uncoarsening phase runs two climbs per level, and the O(n) bIndex plus the
// tile/class buffers otherwise reallocate at every one. Pooled state never
// changes results: every buffer is either fully rewritten before it is read
// (members, cands, off, ...), restored to its zero invariant by the previous
// climb (bIndex), or explicitly reset on checkout (the class stamps).
var climberPool = sync.Pool{New: func() any { return new(colorClimber) }}

// moveCand is one candidate destination of a class member: the target part
// and the total weight of the member's edges into it, accumulated in
// first-seen neighbor order (matching the serial climb's candidate order and
// tie-breaking).
type moveCand struct {
	to  int32
	wTo float64
}

// classScratch is one worker's per-part dedup scratch for candidate
// accumulation; rows are invalidated by bumping the stamp, never by zeroing.
type classScratch struct {
	seen  []int32 // seen[q] == stamp: part q already has a candidate slot
	idx   []int32 // its index within the node's candidate range
	stamp int32
}

// colorClimber carries the state of one colored climb. All slices are
// scratch reused across classes and passes.
type colorClimber struct {
	g       *graph.Graph
	p       *partition.Partition
	o       partition.Objective
	ev      *partition.Eval
	avg     float64
	workers int

	classes Classes // per-tile coloring + class grouping (shared with package fm)

	off      []int32 // candidate range start per class member (degree-prefix)
	cnt      []int32 // candidates actually produced
	wFrom    []float64
	wTot     []float64
	provGain []float64 // provisional best gain per member vs class-start state
	order    []int32   // class commit order (provisional gain desc, id asc)
	cands    []moveCand
	scratch  []classScratch

	bsnap []int // per-pass boundary snapshot buffer
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
// tile at a time: each tile's induced subgraph is colored, each color
// class's candidate moves are gain-evaluated in parallel, and commits
// replay within the class in descending provisional-gain order (ascending
// node id on ties). It returns the number of moves.
func (c *colorClimber) pass() int {
	c.bsnap = c.ev.AppendBoundary(c.bsnap)
	b := c.bsnap // ascending snapshot
	if len(b) == 0 {
		return 0
	}
	moves := 0
	for lo := 0; lo < len(b); lo += tileSize {
		hi := lo + tileSize
		if hi > len(b) {
			hi = len(b)
		}
		moves += c.sweepTile(b[lo:hi])
	}
	return moves
}

// sweepTile colors the tile's induced subgraph and sweeps its color classes
// in ascending color order. Adjacent nodes in different tiles are never
// evaluated concurrently (tiles run sequentially), so only intra-tile
// adjacency needs coloring.
func (c *colorClimber) sweepTile(tile []int) int {
	members, off := c.classes.Group(c.g, tile, c.workers)
	moves := 0
	for cl := 0; cl < len(off)-1; cl++ {
		moves += c.sweepClass(members[off[cl]:off[cl+1]])
	}
	return moves
}

// sweepClass evaluates every class member's candidate moves in parallel
// against the class-start state, then commits strictly-improving moves
// serially in descending provisional-gain order (ascending node id on ties).
//
// The provisional gain — each member's best gain against the class-start
// aggregates — is computed in the same parallel phase as the candidate
// weights, so ordering by it costs no extra serial work, and it is a pure
// function of class-start state, so the commit order is width-independent
// like everything else here. Committing big winners first harvests more of
// a class's gain before the members' moves interact (the same greedy order
// FM's heap imposes globally); commitBest still re-evaluates every candidate
// against the live aggregates at its commit slot, so correctness and the
// strict-improvement rule are unchanged — only the order in which members
// get their slot.
func (c *colorClimber) sweepClass(members []int32) int {
	m := len(members)
	c.off = ensureInt32(c.off, m+1)
	c.cnt = ensureInt32(c.cnt, m)
	c.wFrom = ensureFloat(c.wFrom, m)
	c.wTot = ensureFloat(c.wTot, m)
	c.provGain = ensureFloat(c.provGain, m)
	c.order = ensureInt32(c.order, m)
	c.off[0] = 0
	for j, v := range members {
		c.off[j+1] = c.off[j] + int32(len(c.g.Neighbors(int(v))))
	}
	if need := int(c.off[m]); cap(c.cands) < need {
		c.cands = make([]moveCand, need)
	} else {
		c.cands = c.cands[:need]
	}
	if len(c.scratch) < c.workers {
		c.scratch = make([]classScratch, c.workers)
		for w := range c.scratch {
			c.scratch[w] = classScratch{
				seen:  make([]int32, c.p.Parts),
				idx:   make([]int32, c.p.Parts),
				stamp: 1,
			}
		}
	}
	assign := c.p.Assign
	// Tiny classes run inline: the evaluation is a pure function into
	// index-owned slots either way (so the cutoff cannot change results),
	// and goroutine handoff would cost more than the work itself.
	workers := c.workers
	if m < 32 {
		workers = 1
	}
	par.For(workers, m, func(worker, lo, hi int) {
		sc := &c.scratch[worker]
		for j := lo; j < hi; j++ {
			v := int(members[j])
			from := assign[v]
			base := int(c.off[j])
			k := int32(0)
			var wf, wt float64
			ws := c.g.EdgeWeights(v)
			for i, u := range c.g.Neighbors(v) {
				w := ws[i]
				wt += w
				q := assign[u]
				if q == from {
					wf += w
					continue
				}
				if sc.seen[q] != sc.stamp {
					sc.seen[q] = sc.stamp
					sc.idx[q] = k
					c.cands[base+int(k)] = moveCand{to: int32(q), wTo: w}
					k++
				} else {
					c.cands[base+int(sc.idx[q])].wTo += w
				}
			}
			sc.stamp++
			c.cnt[j] = k
			c.wFrom[j] = wf
			c.wTot[j] = wt
			// Provisional best gain vs the class-start aggregates (ev is
			// read-only during the parallel phase), for the commit order.
			best := math.Inf(-1)
			for t := int32(0); t < k; t++ {
				cd := c.cands[base+int(t)]
				wOther := wt - wf - cd.wTo
				if fit := c.ev.MoveGainFromWeights(c.g, c.p, c.o, c.avg, v, int(cd.to), wf, cd.wTo, wOther); fit > best {
					best = fit
				}
			}
			c.provGain[j] = best
		}
	})
	// Commit order: provisional gain descending, node id ascending on ties.
	// Members are ascending within a class, so comparing the j indices is the
	// id tie-break; the order is total (indices are distinct), hence one
	// fixed point for the sort and any width.
	order := c.order[:m]
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if c.provGain[ja] != c.provGain[jb] {
			return c.provGain[ja] > c.provGain[jb]
		}
		return ja < jb
	})
	moves := 0
	for _, j := range order {
		if c.commitBest(int(j), int(members[j])) {
			moves++
		}
	}
	return moves
}

// commitBest folds class member j's precomputed edge-weight triples with the
// current aggregates through the shared gain definition
// (partition.Eval.MoveGainFromWeights), picks the best strictly-improving
// destination with the serial climb's exact tie rules (candidates in
// first-seen neighbor order, strict improvement only), and applies it through
// ev so the aggregates and boundary stay exact.
//
// The precomputed weight triples are still valid here even though earlier
// members of the class may have moved: class members share no edge, so a
// member's neighborhood is untouched until its own commit slot. The
// CommVolume gain ignores the triples and rescans v's neighbor counts inside
// MoveGainFromWeights — against the Eval's current state, which is exactly
// the serial semantics (and still sound under the no-shared-edge guarantee).
func (c *colorClimber) commitBest(j, v int) bool {
	wf, wt := c.wFrom[j], c.wTot[j]
	bestTo := -1
	var bestFit float64
	for k := 0; k < int(c.cnt[j]); k++ {
		cd := c.cands[int(c.off[j])+k]
		to := int(cd.to)
		wOther := wt - wf - cd.wTo
		fit := c.ev.MoveGainFromWeights(c.g, c.p, c.o, c.avg, v, to, wf, cd.wTo, wOther)
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
