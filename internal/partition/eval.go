package partition

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Eval caches the per-part aggregates of a partition — part weights W(q) and
// part cuts C(q) — so that single-node reassignments update the fitness in
// O(deg(v)) instead of rescanning the whole graph. The GA engine keeps one
// Eval per individual: each offspring's starts as a copy of its parent's
// (CloneInto), and the genes crossover and mutation change, like the moves
// of boundary hill climbing, apply incremental deltas.
//
// An Eval has one lifecycle: NewEval builds the aggregates, Track (or
// Tracked, which builds only what is missing) adds the trackers an objective
// needs, Move keeps everything exact, and AppendBoundary reads the tracked
// boundary set — the nodes with at least one neighbor in another part.
// Refiners seed their scans from that set instead of rescanning all n nodes,
// which is what makes per-level refinement in the multilevel pipeline
// output-sensitive. Tracking is opt-in because it costs O(n) memory and
// O(deg) extra work per move; the GA's per-individual Evals ask for it only
// when the GA hill-climbs, the one reader of their boundary.
//
// An Eval is only meaningful together with the partition it was built from
// (or has tracked through Move calls); callers own keeping the pair in sync.
type Eval struct {
	Weights []float64 // W(q): total node weight of part q
	Cuts    []float64 // C(q): total weight of edges with exactly one endpoint in q

	// Boundary tracking (built by Track). extDeg[v] counts v's neighbors
	// assigned to a different part; v is on the boundary iff extDeg[v] > 0.
	// bnodes holds the boundary members in arbitrary order; bpos[v]-1 is v's
	// index in bnodes (0 = absent), the classic indexed-set layout giving
	// O(1) insert and delete.
	extDeg []int32
	bnodes []int32
	bpos   []int32

	// Communication-volume tracking (built by Track under CommVolume), the
	// per-(node, part) aggregates the CommVolume objective's O(deg) gains
	// need. nbrCnt[v*parts+q] counts v's neighbors assigned to part q;
	// extParts[v] is the number of distinct foreign parts v touches (its
	// volume contribution); Vols[q] = Σ_{v∈q} extParts[v]. All counters are
	// integers, so the tracked state — and every gain derived from it — is
	// exact and worker-count independent.
	Vols     []float64
	nbrCnt   []int32
	extParts []int32
}

// NewEval scans g once and returns the aggregates of p. The accumulation
// order matches PartWeights and PartCuts exactly, so the resulting fitness
// is bit-identical to the scan-based one.
func NewEval(g *graph.Graph, p *Partition) *Eval {
	ev := &Eval{
		Weights: make([]float64, p.Parts),
		Cuts:    make([]float64, p.Parts),
	}
	a := p.Assign
	for v, q := range a {
		ev.Weights[q] += g.NodeWeight(v)
	}
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(u)
		ws := g.EdgeWeights(u)
		for i, v := range nbrs {
			if int(v) > u && a[u] != a[v] {
				ev.Cuts[a[u]] += ws[i]
				ev.Cuts[a[v]] += ws[i]
			}
		}
	}
	return ev
}

// Track (re)builds the trackers objective o works through, for g and p, in
// O(V+E) sharded over `workers` goroutines: the boundary set always, and the
// comm-volume counts when o is CommVolume or the Eval already keeps them, so
// no tracker is ever left describing another graph. The weight and cut
// aggregates are not touched: they must already be p's. The multilevel
// pipeline calls Track after every projection, which preserves part weights
// and cuts but not node identities. The rebuilt state is bit-identical at
// every worker count.
func (ev *Eval) Track(g *graph.Graph, p *Partition, o Objective, workers int) {
	ev.trackBoundary(g, p, workers)
	if o == CommVolume || ev.TracksCommVol() {
		ev.trackCommVol(g, p, workers)
	}
}

// Tracked returns an Eval of p that tracks what objective o needs: ev
// itself, built by NewEval when nil, with each missing tracker built as
// Track would and every tracker already present left as it is. It is how
// every refiner entry point prepares the Eval it was handed.
func Tracked(g *graph.Graph, p *Partition, ev *Eval, o Objective, workers int) *Eval {
	if ev == nil {
		ev = NewEval(g, p)
	}
	if !ev.TracksBoundary() {
		ev.trackBoundary(g, p, workers)
	}
	if o == CommVolume && !ev.TracksCommVol() {
		ev.trackCommVol(g, p, workers)
	}
	return ev
}

// TracksBoundary reports whether this Eval maintains the boundary set.
func (ev *Eval) TracksBoundary() bool { return ev.extDeg != nil }

// TracksCommVol reports whether this Eval maintains the communication-volume
// aggregates.
func (ev *Eval) TracksCommVol() bool { return ev.nbrCnt != nil }

// CommVol returns the total communication volume Σ_q V(q) from the tracked
// aggregates. It panics if tracking is not enabled.
func (ev *Eval) CommVol() float64 {
	if ev.nbrCnt == nil {
		panic("partition: CommVol called on Eval without comm-volume tracking")
	}
	var s float64
	for _, v := range ev.Vols {
		s += v
	}
	return s
}

// CommVolDelta returns the change in total communication volume caused by
// moving v to part `to`, in O(deg(v)) from the tracked per-(node, part)
// counts, without applying the move. The delta is integer-valued, so it is
// exact. It panics if comm-volume tracking is not enabled.
func (ev *Eval) CommVolDelta(g *graph.Graph, p *Partition, v, to int) float64 {
	if ev.nbrCnt == nil {
		panic("partition: CommVolDelta called on Eval without comm-volume tracking")
	}
	from := int(p.Assign[v])
	if from == to {
		return 0
	}
	parts := p.Parts
	// v's own contribution: its neighbor counts do not change, but the set of
	// parts that are "foreign" to it does — `from` joins it, `to` leaves it.
	cntV := ev.nbrCnt[v*parts : (v+1)*parts]
	var d int32
	if cntV[from] > 0 {
		d++
	}
	if cntV[to] > 0 {
		d--
	}
	// Each neighbor u loses `from` from its touched set if v was its last
	// neighbor there, and gains `to` if it had none — counting only parts
	// foreign to u itself.
	a := p.Assign
	for _, u := range g.Neighbors(v) {
		qu := int(a[u])
		cu := ev.nbrCnt[int(u)*parts : (int(u)+1)*parts]
		if qu != from && cu[from] == 1 {
			d--
		}
		if qu != to && cu[to] == 0 {
			d++
		}
	}
	return float64(d)
}

// AppendBoundary returns the tracked boundary nodes in increasing order,
// written into buf (which may be nil): buf's contents are replaced, its
// capacity is reused, so refiners that snapshot the boundary once per pass
// recycle one buffer. Of two routes to the same list it takes the cheaper:
// sorting the b members, O(b log b), while the boundary is sparse, and one
// pass over the n per-node counters once b·log2(b) exceeds n. Either way the
// cost is output-sensitive, never more than the sort. It panics if tracking
// is not enabled.
func (ev *Eval) AppendBoundary(buf []int) []int {
	if ev.extDeg == nil {
		panic("partition: AppendBoundary called on Eval without boundary tracking")
	}
	b := len(ev.bnodes)
	buf = slices.Grow(buf[:0], b)
	if b*bits.Len(uint(b)) > len(ev.extDeg) {
		for v, d := range ev.extDeg {
			if d > 0 {
				buf = append(buf, v)
			}
		}
		return buf
	}
	for _, v := range ev.bnodes {
		buf = append(buf, int(v))
	}
	slices.Sort(buf)
	return buf
}

// boundaryInsert adds v to the boundary set if absent.
func (ev *Eval) boundaryInsert(v int) {
	if ev.bpos[v] == 0 {
		ev.bnodes = append(ev.bnodes, int32(v))
		ev.bpos[v] = int32(len(ev.bnodes))
	}
}

// boundaryRemove deletes v from the boundary set if present (swap-delete).
func (ev *Eval) boundaryRemove(v int) {
	i := ev.bpos[v]
	if i == 0 {
		return
	}
	last := ev.bnodes[len(ev.bnodes)-1]
	ev.bnodes[i-1] = last
	ev.bpos[last] = i
	ev.bnodes = ev.bnodes[:len(ev.bnodes)-1]
	ev.bpos[v] = 0
}

// Clone deep-copies the aggregates and every tracker.
func (ev *Eval) Clone() *Eval { return ev.CloneInto(nil) }

// CloneInto is Clone into dst's storage: it makes dst (allocated when nil) a
// deep copy of ev — the aggregates and every tracker, the comm-volume counts
// included, with any tracker ev lacks dropped — reusing dst's slices where
// their capacity allows, and returns it. The GA engine recycles the Evals of
// each replaced generation this way.
func (ev *Eval) CloneInto(dst *Eval) *Eval {
	if dst == nil {
		dst = &Eval{}
	}
	dst.Weights = copyInto(dst.Weights, ev.Weights)
	dst.Cuts = copyInto(dst.Cuts, ev.Cuts)
	dst.extDeg = copyInto(dst.extDeg, ev.extDeg)
	dst.bnodes = copyInto(dst.bnodes, ev.bnodes)
	dst.bpos = copyInto(dst.bpos, ev.bpos)
	dst.Vols = copyInto(dst.Vols, ev.Vols)
	dst.nbrCnt = copyInto(dst.nbrCnt, ev.nbrCnt)
	dst.extParts = copyInto(dst.extParts, ev.extParts)
	return dst
}

// copyInto returns a copy of src, in dst's storage when it fits. A nil src
// stays nil, the mark of a tracker the Eval does not keep, and a non-nil one
// never becomes nil.
func copyInto[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	if dst == nil || cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Move reassigns node v of p to part `to`, updating both the partition and
// the cached aggregates in O(deg(v)). Only C(from) and C(to) change: an edge
// (v,u) with u in a third part is cut both before and after the move.
func (ev *Eval) Move(g *graph.Graph, p *Partition, v, to int) {
	from := int(p.Assign[v])
	if from == to {
		return
	}
	wv := g.NodeWeight(v)
	ev.Weights[from] -= wv
	ev.Weights[to] += wv
	track := ev.extDeg != nil
	var wFrom, wTo, wOther float64
	var extV int32
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		switch int(p.Assign[u]) {
		case from:
			wFrom += ws[i]
			if track {
				// Edge {v,u} was internal and becomes external.
				extV++
				if ev.extDeg[u]++; ev.extDeg[u] == 1 {
					ev.boundaryInsert(int(u))
				}
			}
		case to:
			wTo += ws[i]
			if track {
				// Edge {v,u} was external and becomes internal.
				if ev.extDeg[u]--; ev.extDeg[u] == 0 {
					ev.boundaryRemove(int(u))
				}
			}
		default:
			wOther += ws[i]
			if track {
				extV++ // external before and after
			}
		}
	}
	// Edges into `from` become cut, edges into `to` become internal, edges
	// into other parts transfer between C(from) and C(to).
	ev.Cuts[from] += wFrom - wTo - wOther
	ev.Cuts[to] += wFrom - wTo + wOther
	if track {
		ev.extDeg[v] = extV
		if extV > 0 {
			ev.boundaryInsert(v)
		} else {
			ev.boundaryRemove(v)
		}
	}
	if ev.nbrCnt != nil {
		ev.moveCommVol(g, p, v, from, to)
	}
	p.Assign[v] = uint16(to)
}

// moveCommVol updates the tracked comm-volume aggregates for v moving from
// `from` to `to`, in O(deg(v)) — one O(1) update per neighbor. Called before
// p.Assign[v] changes.
func (ev *Eval) moveCommVol(g *graph.Graph, p *Partition, v, from, to int) {
	parts := p.Parts
	// v's own volume: its neighbor counts are unchanged, but `from` becomes
	// foreign to it and `to` stops being foreign.
	cntV := ev.nbrCnt[v*parts : (v+1)*parts]
	oldExt := ev.extParts[v]
	newExt := oldExt
	if cntV[from] > 0 {
		newExt++
	}
	if cntV[to] > 0 {
		newExt--
	}
	ev.extParts[v] = newExt
	ev.Vols[from] -= float64(oldExt)
	ev.Vols[to] += float64(newExt)
	// Each neighbor sees one member of `from` leave and one member of `to`
	// arrive; its touched-foreign-part set shrinks or grows at the edges.
	a := p.Assign
	for _, u := range g.Neighbors(v) {
		qu := int(a[u])
		cu := ev.nbrCnt[int(u)*parts : (int(u)+1)*parts]
		if cu[from]--; cu[from] == 0 && qu != from {
			ev.extParts[u]--
			ev.Vols[qu]--
		}
		if cu[to]++; cu[to] == 1 && qu != to {
			ev.extParts[u]++
			ev.Vols[qu]++
		}
	}
}

// ImbalanceSq returns Σ_q (W(q) − W/n)² from the cached weights.
func (ev *Eval) ImbalanceSq(g *graph.Graph) float64 {
	avg := g.TotalNodeWeight() / float64(len(ev.Weights))
	var s float64
	for _, wq := range ev.Weights {
		d := wq - avg
		s += d * d
	}
	return s
}

// TotalCutWeight returns Σ_q C(q) (each cut edge counted twice, as in the
// paper's Fitness 1).
func (ev *Eval) TotalCutWeight() float64 {
	var s float64
	for _, c := range ev.Cuts {
		s += c
	}
	return s
}

// MaxCut returns max_q C(q), the worst-part cost of Fitness 2.
func (ev *Eval) MaxCut() float64 {
	var max float64
	for _, c := range ev.Cuts {
		if c > max {
			max = c
		}
	}
	return max
}

// Fitness evaluates objective o from the cached aggregates. For graphs with
// integer weights the result is exactly Partition.Fitness; for fractional
// weights it may differ in the last bits (different but fixed summation
// order), deterministically for a given move history. An Eval that reached
// its partition through Moves — every GA offspring, copied from its parent
// and moved to its own genes — sums its cuts in move order, so on fractional
// weights it may also differ in the last bits from NewEval of the same
// partition.
func (ev *Eval) Fitness(g *graph.Graph, o Objective) float64 {
	switch o {
	case TotalCut:
		return -(ev.ImbalanceSq(g) + ev.TotalCutWeight())
	case WorstCut:
		return -(ev.ImbalanceSq(g) + ev.MaxCut())
	case CommVolume:
		return -(ev.ImbalanceSq(g) + ev.CommVol())
	default:
		panic("partition: unknown objective")
	}
}
