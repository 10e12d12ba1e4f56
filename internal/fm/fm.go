// Package fm implements Fiduccia–Mattheyses-style k-way refinement with
// bucket-sorted gains: the linear-time counterpart of package kl's simple
// hill climber. One FM pass moves each node at most once, always the
// highest-gain legal move (respecting a balance constraint), and keeps the
// best prefix of the move sequence — so it can climb out of local optima
// that pure steepest-descent cannot.
//
// The paper's GA uses boundary hill climbing (kl.HillClimbEval); FM is the
// stronger refinement used by the multilevel pipeline (the paper's "prior
// graph contraction" outlook) and by the ablation benchmarks.
package fm

import (
	"math"

	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/par"
	"repro/internal/partition"
)

// Config bounds a refinement run.
type Config struct {
	// MaxPasses caps the number of full FM passes; 0 means until no pass
	// improves (at most 16, a safety bound).
	MaxPasses int
	// Workers bounds the goroutines of each pass's data-parallel half (<= 0
	// selects GOMAXPROCS): Refine's heap seeding — the connectivity-row
	// materialization and best-candidate scan over the whole boundary — and
	// RefineColored's per-class gain evaluation and row updates. A pure
	// speed knob: both schedules are bit-identical at every width.
	Workers int
	// Objective selects which cost the best-prefix selection minimizes. The
	// zero value (TotalCut) is the historical FM, byte for byte: moves pop in
	// cut-gain order and the kept prefix maximizes cumulative cut reduction.
	// WorstCut keeps the same pop order (the cut gain is a visit-order
	// heuristic there) but scores each applied move by the max_q C(q) delta
	// it causes, so the kept prefix is the one that most reduced the worst
	// part's cut. CommVolume is not supported: FM's lazily-materialized
	// connectivity rows go stale on locked neighbors, which the cut deltas
	// tolerate but distinct-part counting does not — the registry's declared
	// objective constraints route commvol to the KL refiners instead, and
	// both refiners panic if handed it anyway.
	Objective partition.Objective
	// Stop, when non-nil, is polled before each pass (RefineColored also
	// polls it between color rounds); a refinement whose Stop reports true
	// returns early with the gain applied so far. Every exit applies the
	// kept moves through ev, so early return yields a valid, just less
	// refined, partition.
	Stop func() bool
	// Scratch, when non-nil, supplies the refinement's working memory —
	// the Theta(n*parts) connectivity table, the gain heap, the move log —
	// so repeated refinements (one per uncoarsening level, or one per run in
	// a bench loop) recycle buffers instead of reallocating them. The
	// buffers grow to the largest refinement served and carry a monotonic
	// pass counter, so stale state from earlier uses can never validate;
	// results are bit-identical with and without one. A Scratch is not safe
	// for concurrent use.
	Scratch *Scratch
}

// Scratch owns a refinement's working state across calls. The zero value is
// ready to use; see Config.Scratch.
type Scratch struct {
	s scratch
}

// Reserve grows the scratch's buffers for an (n, parts) refinement without
// running one. Callers that refine a hierarchy from coarse to fine — where
// every level's natural grow step would reallocate the Theta(n*parts)
// connectivity table — reserve the finest level's size once so the whole
// unwind reuses a single allocation. Reserving changes no result: capacity
// is invisible to the algorithm.
func (s *Scratch) Reserve(n, parts int) {
	s.s.grow(n, parts)
}

// Refine improves p in place with serial-heap FM passes, minimizing the
// objective subject to the balance constraint, and returns the total
// improvement. Every move kept by a pass is applied through ev, so ev stays
// exactly in sync with p at O(deg) per kept move and never needs a rescan;
// the multilevel pipeline relies on this to carry one Eval across FM
// refinement at every uncoarsening level. A nil ev is built from p.
//
// Each pass seeds its gain heap from the Eval's tracked boundary set, and
// per-node connectivity rows are materialized lazily as the pass spreads
// outward from the boundary — the expensive work (connectivity scans, heap
// traffic) scales with the boundary region a pass actually touches, leaving
// only two O(n) housekeeping scans (the working-assignment copy and the
// part-size count) per pass, with the Theta(n*parts) connectivity storage
// allocated once per refinement and reset lazily between passes.
func Refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) float64 {
	return refine(g, p, ev, cfg, (*refinement).heapPass)
}

// refinement is the setup one Refine or RefineColored call shares across its
// passes.
type refinement struct {
	g       *graph.Graph
	p       *partition.Partition
	ev      *partition.Eval
	s       *scratch
	o       partition.Objective
	workers int
	stop    func() bool
	minSize int // node-count balance bounds every kept move respects
	maxSize int

	// The current pass's best-prefix state, advanced by commit: the
	// cumulative score of the moves logged so far (s.log), and the best
	// cumulative score with the log length that reached it.
	cum, bestCum float64
	bestK        int
	cmax         runningMax // WorstCut: max over the tentative cuts s.cuts
}

// refine is the pass loop both schedules share. It rejects CommVolume,
// applies the MaxPasses default, makes ev a boundary-tracking Eval in sync
// with p (built by the sharded scan when nil), derives the balance bounds —
// every part's node count within ceil(2% of ideal)+1 nodes of the ideal
// n/parts — checks out the scratch, and runs pass until one gains nothing,
// Stop fires, or MaxPasses is reached.
func refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config, pass func(*refinement) (gain float64, stopped bool)) float64 {
	if cfg.Objective == partition.CommVolume {
		panic("fm: CommVolume objective is not supported (use the kl refiners)")
	}
	maxPasses := cfg.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 16
	}
	n := g.NumNodes()
	if n == 0 || p.Parts < 2 {
		return 0
	}
	if ev == nil {
		ev = partition.NewEvalBoundaryPar(g, p, cfg.Workers)
	} else if !ev.TracksBoundary() {
		ev.ResetBoundaryPar(g, p, cfg.Workers)
	}
	ideal := float64(n) / float64(p.Parts)
	slack := int(math.Ceil(ideal/50)) + 1
	r := &refinement{
		g:       g,
		p:       p,
		ev:      ev,
		o:       cfg.Objective,
		workers: par.Workers(cfg.Workers),
		stop:    cfg.Stop,
		minSize: max(int(math.Floor(ideal))-slack, 0),
		maxSize: int(math.Ceil(ideal)) + slack,
	}
	r.s = new(scratch)
	if cfg.Scratch != nil {
		r.s = &cfg.Scratch.s
	}
	r.s.grow(n, p.Parts)
	var total float64
	for i := 0; i < maxPasses; i++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		gain, stopped := pass(r)
		total += gain
		if stopped || gain <= 0 {
			break
		}
	}
	return total
}

// scratch is the per-refinement working state shared across passes, so a
// multi-pass run pays the Theta(n*parts) connectivity allocation once
// instead of once per pass. Validity is stamped with the pass number
// (connPass, lockPass), so "reset" between passes is a counter increment,
// never an O(n*parts) zeroing sweep — stale rows are zeroed one at a time
// if and when a pass actually touches them.
type scratch struct {
	pass      int32
	conn      []float64 // conn[v*parts+q]: weight of v's edges into part q
	connPass  []int32   // row v is valid iff connPass[v] == pass
	lockPass  []int32   // v is locked iff lockPass[v] == pass
	stamp     []int     // heap staleness guard, 0-based within each pass
	stampPass []int32   // stamp[v] is current-pass iff stampPass[v] == pass
	work      *partition.Partition
	heap      candHeap
	log       []move
	seedTo    []int32   // parallel seeding: best destination per seed node
	seedGain  []float64 // ... and its gain (-1 destination = no candidate)
	seeds     []int     // boundary snapshot buffer, one per pass
	cuts      []float64 // WorstCut: tentative per-part cuts along the pass's move sequence
	sizes     []int     // live part sizes along the pass's move sequence

	// Colored-pass (RefineColored) state, grown by growPar only when the
	// parallel refiner runs; see fmpar.go. The generation counters are
	// monotonic for the same reason pass is: stale marks — even ones
	// uncovered by regrowth — can never equal a future generation.
	classes   kl.Classes          // per-round coloring of the frontier
	merger    par.Merger[parCand] // per-class deterministic candidate merge
	frontier  []int               // current round's eligible nodes, ascending
	next      []int               // next round's frontier under construction
	nextMark  []int32             // nextMark[v] == nextGen: already in next
	nextGen   int32
	movedV    []int32 // nodes committed by the current class batch
	movedMark []int32 // movedMark[v] == movedGen: v moved in this batch
	movedGen  int32
	movedFrom []uint16 // the batch's move endpoints, keyed by node
	movedTo   []uint16
	affected  []int32 // movers' neighbors with live rows, dedup'd per batch
	affMark   []int32 // affMark[v] == affGen: already in affected
	affGen    int32
}

// grow resizes the scratch for an (n, parts) refinement, reusing capacity.
// The pass counter is never reset, so stamps from earlier (even larger)
// refinements can never equal a new pass's stamp: reused pass-stamped state
// is invalid by construction, and conn rows are re-zeroed lazily on first
// touch exactly as within a single refinement. Freshly grown regions are
// zero, which the monotonically positive pass counter also reads as stale.
func (s *scratch) grow(n, parts int) {
	if cap(s.conn) < n*parts {
		s.conn = make([]float64, n*parts)
	} else {
		s.conn = s.conn[:n*parts]
	}
	if cap(s.connPass) < n {
		s.connPass = make([]int32, n)
		s.lockPass = make([]int32, n)
		s.stamp = make([]int, n)
		s.stampPass = make([]int32, n)
	} else {
		s.connPass = s.connPass[:n]
		s.lockPass = s.lockPass[:n]
		s.stamp = s.stamp[:n]
		s.stampPass = s.stampPass[:n]
	}
	if s.work == nil || s.work.Parts != parts || cap(s.work.Assign) < n {
		s.work = partition.New(n, parts)
	} else {
		s.work.Assign = s.work.Assign[:n]
	}
	if cap(s.sizes) < parts {
		s.sizes = make([]int, parts)
	} else {
		s.sizes = s.sizes[:parts]
	}
}

// ensureConn materializes v's connectivity row against work's assignment:
// computed (and its stale contents zeroed) on first touch in a pass, updated
// incrementally afterwards. It writes only v-owned state (the row and its
// pass stamp), so concurrent calls on distinct nodes are safe.
func (s *scratch) ensureConn(g *graph.Graph, work *partition.Partition, parts, v int) {
	if s.connPass[v] == s.pass {
		return
	}
	s.connPass[v] = s.pass
	row := s.conn[v*parts : (v+1)*parts]
	for q := range row {
		row[q] = 0
	}
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		row[work.Assign[u]] += ws[i]
	}
}

// bestOf scans v's (already materialized) connectivity row for the best
// candidate move — shared by the serial pass's heap traffic and the parallel
// pass's candidate evaluation, so the candidate-selection rules exist exactly
// once.
func (s *scratch) bestOf(work *partition.Partition, parts, v int) (int32, float64) {
	from := int(work.Assign[v])
	row := s.conn[v*parts : (v+1)*parts]
	base := row[from]
	bestTo, bestGain := int32(-1), math.Inf(-1)
	for q := 0; q < parts; q++ {
		if q == from || row[q] == 0 {
			continue // only move toward parts v touches (boundary moves)
		}
		if gainQ := row[q] - base; gainQ > bestGain {
			bestTo, bestGain = int32(q), gainQ
		}
	}
	return bestTo, bestGain
}

// move is one entry of the FM move log.
type move struct {
	v, to int
}

// runningMax tracks max(0, max_q cuts[q]) across incremental updates — the
// quantity WorstCut scoring charges each applied move with — in O(1) per
// update instead of the two O(parts) full scans per move the scoring
// historically paid. It keeps the current maximum and how many entries sit
// exactly at it; only when the unique maximum decreases does it rescan, so a
// pass's total rescan work is bounded by the moves that actually lower the
// worst part (the ones the objective is hunting). All comparisons are the
// scan's own float comparisons on the same values, so the tracked max — and
// with it every move's score and the kept prefix — is bit-identical to the
// scanned one.
type runningMax struct {
	max  float64 // current max over the entries (not clamped)
	nMax int     // entries equal to max
}

func (m *runningMax) reset(cuts []float64) {
	m.max, m.nMax = math.Inf(-1), 0
	for _, c := range cuts {
		if c > m.max {
			m.max, m.nMax = c, 1
		} else if c == m.max {
			m.nMax++
		}
	}
}

// apply adds d to cuts[q] and restores the max invariant.
func (m *runningMax) apply(cuts []float64, q int, d float64) {
	old := cuts[q]
	now := old + d
	cuts[q] = now
	if old == m.max {
		m.nMax--
	}
	if now > m.max {
		m.max, m.nMax = now, 1
	} else if now == m.max {
		m.nMax++
	}
	if m.nMax == 0 {
		m.reset(cuts)
	}
}

// cur returns the tracked maximum with the historical scan's floor: the scan
// accumulated into a 0.0 start, so an all-below-zero (or empty) cut vector
// reads as 0.
func (m *runningMax) cur() float64 {
	if m.max > 0 {
		return m.max
	}
	return 0
}

// startPass begins a pass of either schedule: a fresh pass stamp, the
// working assignment and part sizes copied from p, an empty move log, and
// under WorstCut the tentative per-part cuts copied from ev.
func (r *refinement) startPass() {
	s := r.s
	s.pass++
	copy(s.work.Assign, r.p.Assign)
	clear(s.sizes)
	for _, q := range s.work.Assign {
		s.sizes[q]++
	}
	s.log = s.log[:0]
	r.cum, r.bestCum, r.bestK = 0, 0, 0
	if r.o == partition.WorstCut {
		s.cuts = append(s.cuts[:0], r.ev.Cuts...)
		r.cmax.reset(s.cuts)
	}
}

// legal reports whether moving one node from part from to part to keeps
// both within the node-count balance bounds.
func (r *refinement) legal(from, to int) bool {
	return r.s.sizes[from]-1 >= r.minSize && r.s.sizes[to]+1 <= r.maxSize
}

// commit is the move step both schedules share. It locks v, moves it from
// part from to part to in the working assignment and part sizes, scores the
// move, logs it, and advances the best prefix. The score is the cut gain
// passed in, except under WorstCut: there it is the drop of max_q C(q) over
// the tentative cuts, read from v's connectivity row, and the cut gain that
// ordered the pops or commits is only a visit-order heuristic. v's row is
// current, because it keys on v's neighbors' parts, which v's own move does
// not touch; and only C(from) and C(to) change, because v's cut edges into
// any third part stay cut on both sides.
func (r *refinement) commit(v, from, to int, gain float64) {
	s, parts := r.s, r.p.Parts
	s.lockPass[v] = s.pass
	s.work.Assign[v] = uint16(to)
	s.sizes[from]--
	s.sizes[to]++
	if r.o == partition.WorstCut {
		row := s.conn[v*parts : (v+1)*parts]
		var rowSum float64
		for _, w := range row {
			rowSum += w
		}
		wFrom, wTo := row[from], row[to]
		wOther := rowSum - wFrom - wTo
		curMax := r.cmax.cur()
		r.cmax.apply(s.cuts, from, wFrom-wTo-wOther)
		r.cmax.apply(s.cuts, to, wFrom-wTo+wOther)
		r.cum += curMax - r.cmax.cur()
	} else {
		r.cum += gain
	}
	s.log = append(s.log, move{v: v, to: to})
	if r.cum > r.bestCum {
		r.bestCum, r.bestK = r.cum, len(s.log)
	}
}

// keep applies the pass's best prefix through ev, in pass order, and
// returns its score.
func (r *refinement) keep() float64 {
	for _, m := range r.s.log[:r.bestK] {
		r.ev.Move(r.g, r.p, m.v, m.to)
	}
	return r.bestCum
}

// cand is a prioritized candidate move.
type cand struct {
	v    int
	to   int
	gain float64
	// stamp guards against stale heap entries: a candidate is valid only if
	// it carries the node's current stamp.
	stamp int
}

// candHeap is a max-heap on gain with value-typed push/pop. It deliberately
// avoids container/heap: boxing each cand into an interface{} allocated on
// every push, and the push/pop stream is the hottest loop of a pass
// (hundreds of thousands of operations on a 10k-node graph).
type candHeap []cand

func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].gain >= s[i].gain {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *candHeap) pop() cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(s) && s[l].gain > s[largest].gain {
			largest = l
		}
		if r < len(s) && s[r].gain > s[largest].gain {
			largest = r
		}
		if largest == i {
			break
		}
		s[i], s[largest] = s[largest], s[i]
		i = largest
	}
	return top
}

// heapPass runs one FM pass and returns the improvement kept; the kept
// moves are applied through ev so it tracks p. It never stops mid-pass.
//
// conn[v*parts+q] — the total weight of v's edges into part q, against the
// pass's working assignment — is materialized lazily: a node's row is
// computed (and its stale contents zeroed) on first touch in a pass and
// updated incrementally afterwards. The heap is seeded from the tracked
// boundary, so the pass's connectivity work never reaches the interior at
// all: a node whose neighbors all share its part has no candidate move.
//
// Seeding is the pass's data-parallel half: each seed node's connectivity
// row and best candidate are a pure function of the pass-start working
// assignment and every node owns its own row, so they are computed over
// the workers; the candidates are then pushed serially in ascending node
// order — the exact heap a serial seed loop builds. The pop/commit loop
// that follows stays serial (each move reorders the heap the next pop
// reads); RefineColored is the schedule that parallelizes it.
func (r *refinement) heapPass() (float64, bool) {
	g, ev, s := r.g, r.ev, r.s
	parts := r.p.Parts

	r.startPass()
	work := s.work
	ensureConn := func(v int) { s.ensureConn(g, work, parts, v) }
	locked := func(v int) bool { return s.lockPass[v] == s.pass }
	// stamp values restart at 0 each pass; the reset is lazy (stamped with
	// the pass number) so it costs nothing for untouched nodes.
	stampOf := func(v int) int {
		if s.stampPass[v] != s.pass {
			s.stampPass[v] = s.pass
			s.stamp[v] = 0
		}
		return s.stamp[v]
	}
	bumpStamp := func(v int) int {
		s.stamp[v] = stampOf(v) + 1
		return s.stamp[v]
	}

	h := &s.heap
	*h = (*h)[:0]
	pushBest := func(v int) {
		ensureConn(v)
		if to, gain := s.bestOf(work, parts, v); to >= 0 {
			h.push(cand{v: v, to: int(to), gain: gain, stamp: stampOf(v)})
		}
	}
	s.seeds = ev.AppendBoundary(s.seeds)
	seeds := s.seeds
	if cap(s.seedTo) < len(seeds) {
		s.seedTo, s.seedGain = make([]int32, len(seeds)), make([]float64, len(seeds))
	}
	s.seedTo, s.seedGain = s.seedTo[:len(seeds)], s.seedGain[:len(seeds)]
	// ensureConn and bestOf touch only v-owned state, so concurrent calls on
	// distinct seeds are safe.
	par.For(r.workers, len(seeds), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ensureConn(seeds[i])
			s.seedTo[i], s.seedGain[i] = s.bestOf(work, parts, seeds[i])
		}
	})
	for i, v := range seeds {
		if s.seedTo[i] >= 0 {
			h.push(cand{v: v, to: int(s.seedTo[i]), gain: s.seedGain[i], stamp: stampOf(v)})
		}
	}

	for len(*h) > 0 {
		c := h.pop()
		v := c.v
		if locked(v) || c.stamp != stampOf(v) {
			continue // stale entry
		}
		from := int(work.Assign[v])
		if c.to == from {
			continue
		}
		if !r.legal(from, c.to) {
			// Illegal now; it may become legal after other moves, so
			// re-stamp and re-push once.
			bumpStamp(v)
			pushBest(v)
			// Avoid infinite loops: lock if it bounced too many times.
			if s.stamp[v] > 2*parts {
				s.lockPass[v] = s.pass
			}
			continue
		}
		r.commit(v, from, c.to, c.gain)
		// Update neighbors' connectivity and re-queue them. A neighbor whose
		// row is not yet materialized needs no delta: its lazy scan already
		// sees v in its new part.
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if locked(int(u)) {
				continue
			}
			if s.connPass[u] == s.pass {
				s.conn[int(u)*parts+from] -= ws[i]
				s.conn[int(u)*parts+c.to] += ws[i]
			}
			bumpStamp(int(u))
			pushBest(int(u))
		}
	}
	return r.keep(), false
}
