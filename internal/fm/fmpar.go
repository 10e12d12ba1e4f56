// Deterministic-parallel FM: the (round, color, gain-order) move schedule
// that replaces the serial pass's single global heap.
//
// A serial FM pass is a chain — every pop reads the heap every commit just
// reordered — so it cannot parallelize as-is. The parallel pass substitutes
// a schedule whose expensive half is embarrassingly parallel and whose
// serial half is cheap, without weakening any of FM's semantics:
//
//	round:  snapshot the eligible frontier (initially the tracked boundary)
//	        and color its induced subgraph (kl.Classes: first-fit in
//	        descending hashed-priority order, the coloring Jones–Plassmann
//	        would give), so nodes within a color class share no edge;
//	color:  for each class in ascending color order, evaluate every member's
//	        connectivity row and best candidate move in parallel — a pure
//	        function of round-start state, since no class neighbor can move
//	        concurrently — and merge the candidates into one deterministic
//	        total order: gain descending, node id ascending (par.Merger);
//	commit: replay the ordered candidates serially against the live part
//	        sizes (and, under WorstCut, live per-part cuts) with the serial
//	        pass's balance-legality, bounce, lock, and best-prefix rules;
//	        then apply the batch's connectivity-row deltas to the movers'
//	        neighbors in parallel over disjoint rows (each node owns its
//	        row).
//
// One rule is deliberately stricter than the serial pass: a class's commits
// stop at the first negative-gain candidate. Serial FM can afford
// speculative downhill moves because the heap reorders after every commit,
// so each bad move is immediately followed by its best recovery and the
// best prefix brackets the excursion; a colored round commits a whole
// class's candidates before any neighbor reacts, which would pile up an
// entire class of unrecovered downhill moves and bury the good prefix
// mid-log (measured: ~2.3x worse cuts from random starts). Plateau moves
// (gain exactly 0) still commit, which preserves the serial pass's
// signature ability to slide across flat regions, and under WorstCut the
// cumulative score can still dip between rounds, so the best-prefix log
// remains load-bearing.
//
// Because intra-class members share no edge, a member's evaluated gain is
// still exact at its commit slot — earlier commits in the same class touched
// none of its neighbors — so the cumulative-gain curve, and with it the kept
// best prefix, is computed from exact deltas just like the serial pass. The
// schedule (which nodes commit, in what order) is a pure function of (graph,
// partition, objective): coloring, merging, and committing are
// width-independent by construction, so any Workers value reproduces the
// Workers=1 result bit for bit — the repository-wide contract — while the
// result may differ from serial FM's heap order (the two are distinct
// deterministic algorithms, like kl.HillClimbEval vs kl.Climb).
package fm

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// parCand is one frontier node's best candidate move, evaluated against
// round-start state.
type parCand struct {
	v    int32
	to   int32
	gain float64
}

// lessCand is the class commit order: gain descending, node id ascending —
// a strict total order because ids are distinct, which is what makes the
// merge's fixed point (and so the whole schedule) width-independent.
func lessCand(a, b parCand) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.v < b.v
}

// growPar sizes the colored-pass scratch; grow(n, parts) must have run.
// Like grow, it reuses capacity and never resets the generation counters.
func (s *scratch) growPar(n int) {
	if cap(s.nextMark) < n {
		s.nextMark = make([]int32, n)
		s.movedMark = make([]int32, n)
		s.affMark = make([]int32, n)
		s.movedFrom = make([]uint16, n)
		s.movedTo = make([]uint16, n)
	} else {
		s.nextMark = s.nextMark[:n]
		s.movedMark = s.movedMark[:n]
		s.affMark = s.affMark[:n]
		s.movedFrom = s.movedFrom[:n]
		s.movedTo = s.movedTo[:n]
	}
}

// RefineColored is the deterministic-parallel counterpart of Refine: the
// same pass structure (balance bounds, one move per node per pass, plateau
// moves with best-prefix keep, applied through ev), but scheduled by the
// colored rounds described in the file comment above, so the per-move gain
// evaluation — the pass's dominant cost — runs over cfg.Workers goroutines.
// Results are bit-identical for every Workers value; they are NOT
// bit-identical to Refine (a different deterministic schedule, with cuts of
// the same character). The multilevel pipeline refines its large levels
// with this instead of Refine.
//
// Stop is polled before each pass and additionally between color rounds
// inside a pass; a mid-pass stop still applies the best prefix found so far
// through ev, so the early return leaves p and ev exactly in sync.
func RefineColored(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) float64 {
	return refine(g, p, ev, cfg, (*refinement).coloredPass)
}

// coloredPass runs one colored-schedule FM pass and returns the improvement
// kept plus whether Stop cut the pass short; kept moves are applied through
// ev either way, so pass exits are always consistent states.
func (r *refinement) coloredPass() (float64, bool) {
	g, ev, s, workers, stop := r.g, r.ev, r.s, r.workers, r.stop
	s.growPar(g.NumNodes())
	parts := r.p.Parts
	r.startPass()
	work := s.work
	locked := func(v int) bool { return s.lockPass[v] == s.pass }
	// The serial pass's lazily-reset bounce budget, reused verbatim: stamps
	// restart at 0 on first touch per pass.
	bounce := func(v int) int {
		if s.stampPass[v] != s.pass {
			s.stampPass[v] = s.pass
			s.stamp[v] = 0
		}
		s.stamp[v]++
		return s.stamp[v]
	}

	s.frontier = ev.AppendBoundary(s.frontier)
	frontier := s.frontier
	stopped := false

	for len(frontier) > 0 {
		// A Stop checkpoint per color round, not just per pass: rounds on big
		// frontiers are the unit of work a cancellation should not have to
		// wait whole passes for. The best prefix so far still applies below.
		if stop != nil && stop() {
			stopped = true
			break
		}
		members, off := s.classes.Group(g, frontier)
		s.nextGen++
		next := s.next[:0]
		addNext := func(v int) {
			if s.nextMark[v] != s.nextGen {
				s.nextMark[v] = s.nextGen
				next = append(next, v)
			}
		}
		for cl := 0; cl < len(off)-1; cl++ {
			class := members[off[cl]:off[cl+1]]
			// Parallel half: each member's row and best candidate, exact
			// against round-start state (class members share no edge, and
			// earlier classes' deltas were applied before this evaluation).
			cands := s.merger.Collect(workers, len(class), func(i int) (parCand, bool) {
				v := int(class[i])
				s.ensureConn(g, work, parts, v)
				to, gain := s.bestOf(work, parts, v)
				if to < 0 {
					return parCand{}, false
				}
				return parCand{v: int32(v), to: to, gain: gain}, true
			}, lessCand)
			// Serial half: commit in (gain desc, id asc) order against live
			// sizes and cuts, with the serial pass's legality/bounce/lock and
			// best-prefix rules.
			s.movedGen++
			movedV := s.movedV[:0]
			for _, cd := range cands {
				// Candidates are gain-descending: the first negative gain ends
				// the class's commits (see the package comment — batched
				// downhill moves have no immediate recovery, unlike the
				// serial heap's). Skipped nodes re-enter a later round only
				// when a neighbor's move changes their best candidate.
				if cd.gain < 0 {
					break
				}
				v := int(cd.v)
				from := int(work.Assign[v])
				to := int(cd.to)
				if !r.legal(from, to) {
					// Illegal now; it may become legal after other commits, so
					// stay eligible next round — within the bounce budget, the
					// same loop guard as the serial pass's re-pushes.
					if bounce(v) > 2*parts {
						s.lockPass[v] = s.pass
					} else {
						addNext(v)
					}
					continue
				}
				// v's row is current: all earlier batches' deltas were applied.
				r.commit(v, from, to, cd.gain)
				s.movedMark[v] = s.movedGen
				s.movedFrom[v] = uint16(from)
				s.movedTo[v] = uint16(to)
				movedV = append(movedV, cd.v)
			}
			s.movedV = movedV
			if len(movedV) == 0 {
				continue
			}
			// The movers' unlocked neighbors re-enter the next round (their
			// best move may have changed); those with live rows take the
			// batch's deltas in parallel — each node owns its row, and the
			// batch marks are read-only during the sweep, so any width writes
			// the same values. Locked neighbors' rows go stale, exactly the
			// staleness the serial pass tolerates (they are never read again).
			s.affGen++
			affected := s.affected[:0]
			for _, v32 := range movedV {
				for _, u := range g.Neighbors(int(v32)) {
					ui := int(u)
					if locked(ui) {
						continue
					}
					addNext(ui)
					if s.connPass[ui] == s.pass && s.affMark[ui] != s.affGen {
						s.affMark[ui] = s.affGen
						affected = append(affected, u)
					}
				}
			}
			s.affected = affected
			gen := s.movedGen
			par.For(workers, len(affected), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					u := int(affected[i])
					row := s.conn[u*parts : (u+1)*parts]
					ws := g.EdgeWeights(u)
					for k, x := range g.Neighbors(u) {
						if s.movedMark[x] == gen {
							row[s.movedFrom[x]] -= ws[k]
							row[s.movedTo[x]] += ws[k]
						}
					}
				}
			})
		}
		// Next round's frontier: the bounced members and the movers'
		// neighbors, minus anything locked later in the round, ascending and
		// dedup'd — the same shape AppendBoundary seeds the pass with.
		kept := next[:0]
		for _, v := range next {
			if !locked(v) {
				kept = append(kept, v)
			}
		}
		sort.Ints(kept)
		s.next = s.frontier
		s.frontier = kept
		frontier = kept
	}
	return r.keep(), stopped
}
