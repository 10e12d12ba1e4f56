// Package multilevel implements the graph contraction scheme the paper
// names as the enabler for partitioning large graphs with GAs ("Applying a
// prior graph contraction step should precede the partitioning of very
// large graphs using GA's", citing Barnard & Simon's multilevel RSB).
//
// The pipeline is the METIS-style V-cycle:
//
//	coarsen:   heavy-edge matching collapses the graph level by level until
//	           it is small (CoarsestSize nodes), aggregating node and edge
//	           weights so every coarse cut equals the fine cut it represents;
//	partition: any Partitioner (GA, RSB, KL, FM, greedy, ...) solves the
//	           coarsest graph, where even expensive algorithms are cheap;
//	uncoarsen: the solution is projected back up the hierarchy, with boundary
//	           refinement at every level.
//
// Because contraction preserves both part weights and part cuts exactly, the
// partition.Eval aggregates computed once on the coarsest graph stay valid
// across every projection; refinement keeps them in sync incrementally, so
// the whole uncoarsening phase never rescans a graph to recompute fitness.
//
// Both halves of the V-cycle are parallel under one contract: Config.Workers
// changes wall time, never the result. Coarsening splits matching into a
// parallel propose phase plus a serial claim sweep; uncoarsening fills each
// projection and rebuilds each level's boundary over par-owned index ranges,
// and refines with kl's colored boundary sweep — hill climbing (kl.Climb),
// or label propagation (kl.Propagate) on levels of at least lpMinNodes — FM
// (the heap pass with parallel seeding below coloredFMMinNodes, the colored
// schedule fm.RefineColored at and above it), and the parallel rebalance
// argmax, all of which are bit-identical at every width by construction.
package multilevel

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/par"
	"repro/internal/partition"
)

// Partitioner partitions a (coarse) graph into parts parts.
type Partitioner func(g *graph.Graph, parts int, rng *rand.Rand) (*partition.Partition, error)

// Level is one step of the coarsening hierarchy.
type Level struct {
	Graph *graph.Graph
	// CoarseOf[v] is the coarse node that fine node v collapsed into
	// (indices into the next-coarser graph).
	CoarseOf []int
}

// Coarsen collapses g by one level of heavy-edge matching and returns the
// coarser graph and the fine→coarse map. Node weights add; parallel edges
// accumulate weight; self-edges (internal to a matched pair) vanish.
// workers bounds the goroutines used for the matching proposals and the
// contraction (<= 0 selects GOMAXPROCS); the result is bit-identical for
// every worker count.
//
// Matching visits nodes in random order and pairs each unmatched node with
// its unmatched neighbor across the heaviest edge — the classic heavy-edge
// heuristic: hiding heavy edges inside coarse nodes bounds the cut any
// coarse partition can be forced to pay.
//
// The expensive half of matching — scanning every adjacency list for the
// heaviest incident edge — is a pure function of g, so it runs first as a
// parallel "propose" phase over sharded node ranges. The sequential claim
// sweep then walks the random order and accepts each node's proposal when
// the partner is still free; only when the proposal was already claimed
// does it rescan that node's neighbors for the heaviest still-unmatched
// one. Because a node's proposal is its earliest heaviest neighbor overall,
// an unclaimed proposal is exactly the node the serial algorithm would
// pick, so the sweep reproduces the serial matching bit for bit while the
// O(E) scan parallelizes.
func Coarsen(g *graph.Graph, rng *rand.Rand, workers int) (*graph.Graph, []int) {
	var hs hierarchyScratch
	coarseOf := make([]int, g.NumNodes())
	coarse := hs.coarsen(g, rng, workers, coarseOf)
	return coarse, coarseOf
}

// coarsen is Coarsen drawing the matching vectors (match, pref, the order
// permutation) and the contraction buffers from hs, and writing the
// fine→coarse map into coarseOf (len g.NumNodes()), which it does not
// retain. Bit-identical to Coarsen for every input and worker count — the
// reused order buffer is filled by the exact rand.Perm algorithm, so it
// consumes the same rng draws.
func (hs *hierarchyScratch) coarsen(g *graph.Graph, rng *rand.Rand, workers int, coarseOf []int) *graph.Graph {
	n := g.NumNodes()
	match := ensureInts(&hs.match, n)
	for i := range match {
		match[i] = -1
	}
	order := permInto(rng, ensureInts(&hs.order, n))

	// Propose phase: pref[v] = v's neighbor across the heaviest edge
	// (earliest wins ties, matching the serial scan), -1 for isolated nodes.
	pref := ensureInt32s(&hs.pref, n)
	par.For(workers, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			bestU, bestW := int32(-1), -1.0
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if ws[i] > bestW {
					bestU, bestW = u, ws[i]
				}
			}
			pref[v] = bestU
		}
	})

	// Claim sweep: sequential in the random order, exactly the serial
	// algorithm's tie-breaking.
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		bestU := int(pref[v])
		if bestU < 0 {
			// Isolated node: no proposal, so no partner to claim and nothing
			// for the fallback rescan to find — self-match immediately.
			match[v] = v
			continue
		}
		if match[bestU] != -1 {
			// Proposal already claimed: fall back to the heaviest neighbor
			// still unmatched.
			bestU = -1
			bestW := -1.0
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if match[u] == -1 && ws[i] > bestW {
					bestU, bestW = int(u), ws[i]
				}
			}
		}
		if bestU >= 0 {
			match[v], match[bestU] = bestU, v
		} else {
			match[v] = v // matched with itself
		}
	}
	next := 0
	for v := 0; v < n; v++ {
		if match[v] >= v { // representative of its pair (or singleton)
			coarseOf[v] = next
			if match[v] != v {
				coarseOf[match[v]] = next
			}
			next++
		}
	}
	return hs.contract.Contract(g, coarseOf, next, workers)
}

// permInto fills buf with rng.Perm(len(buf))'s exact permutation — the same
// loop over the same rng draws (pinned by the Go 1 compatibility promise on
// math/rand's value stream) — without allocating.
func permInto(rng *rand.Rand, buf []int) []int {
	for i := 0; i < len(buf); i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// Refiner selects the per-level refinement algorithm of the uncoarsening
// phase. All refiners keep the projected partition.Eval in sync move by
// move, so no level ever rescans the graph to recompute fitness.
type Refiner int

const (
	// RefineKLFM is the default boundary-KL/FM combination: boundary hill
	// climbing first (cheap, takes every strictly improving move), then FM
	// passes (escape zero-gain plateaus by accepting neutral/uphill moves
	// and keeping the best prefix), then a final climb-and-rebalance. This
	// is what gives multilevel its METIS-like quality.
	RefineKLFM Refiner = iota
	// RefineFM is pure Fiduccia–Mattheyses refinement plus a rebalancing
	// sweep (FM's balance slack cannot drain imbalance inherited from
	// weighted coarse levels on its own).
	RefineFM
)

// String returns the flag-friendly name of the refiner.
func (r Refiner) String() string {
	switch r {
	case RefineKLFM:
		return "kl+fm"
	case RefineFM:
		return "fm"
	default:
		return fmt.Sprintf("Refiner(%d)", int(r))
	}
}

// Config parameterizes a multilevel partitioning run.
type Config struct {
	Parts int
	// CoarsestSize stops coarsening once the graph is at or below this many
	// nodes; default 64.
	CoarsestSize int
	// RefinePasses bounds per-level refinement passes; default 4 (the
	// projection of a refined coarse solution starts near a local optimum,
	// so later passes find almost nothing).
	RefinePasses int
	// Refiner selects the uncoarsening refinement; default RefineKLFM.
	Refiner Refiner
	// Workers bounds the goroutines the whole V-cycle may use — matching
	// proposals and contraction on the way down, projection, boundary
	// rebuilds, colored refinement, and rebalance argmax on the way up;
	// <= 0 selects GOMAXPROCS. The result is bit-identical for every value.
	Workers int
	// Objective selects the cost the uncoarsening refiners drive down. The
	// zero value (TotalCut) is the edge-cut pipeline.
	// WorstCut steers every refiner by the max_q C(q) delta. CommVolume
	// routes refinement entirely through the KL climbers (FM does not support
	// it) and rebuilds the per-(node, part) neighbor counts at every level —
	// unlike part weights and cuts, the volume state does not survive
	// projection, because node identities change.
	Objective partition.Objective
	Seed      int64
	// Stats, when non-nil, receives the run's phase timings.
	Stats *Stats
	// Stop, when non-nil, requests cooperative cancellation: it is polled
	// between uncoarsening levels and forwarded into every per-level refiner
	// (which polls it between passes). A stopped run still projects the
	// partition all the way down to the input graph — projection is cheap
	// and is what keeps the returned partition valid for g — it just stops
	// spending on refinement. The coarsening and coarse-solve phases run to
	// completion; they are the cheap front of the V-cycle.
	Stop func() bool
}

// Stats reports where a Partition call spent its wall time and heap
// allocations, phase by phase. The byte counters are runtime.MemStats
// TotalAlloc deltas around each phase — what the phase allocated, not what
// it retained — measured only when Config.Stats is non-nil (ReadMemStats
// briefly stops the world, so unprofiled runs skip it entirely). At the
// million-node tier the V-cycle is allocation- and bandwidth-bound rather
// than compute-bound, which is what these fields exist to show.
type Stats struct {
	Levels      int           // coarsening levels built
	Coarsen     time.Duration // hierarchy construction (matching + contraction)
	CoarseSolve time.Duration // inner partitioner on the coarsest graph
	Project     time.Duration // assignment projection + boundary rebuilds
	Refine      time.Duration // per-level refinement (climb, FM, rebalance)

	// HierarchyEdges is the edges the hierarchy holds: every level's graph,
	// the input included, plus the coarsest. Like the FM counters below it
	// depends only on the inputs.
	HierarchyEdges int

	// Refine broken down by refiner family, so benchmarks can attribute the
	// uncoarsening wall time to the label-propagation sweeps, the KL colored
	// climbs (including rebalance), and the FM passes individually. The three
	// sum to slightly less than Refine (loop overhead is unattributed).
	RefineLP    time.Duration // kl.Propagate on levels of at least lpMinNodes
	RefineClimb time.Duration // kl climbs + rebalance
	RefineFM    time.Duration // fm.Refine / fm.RefineColored

	// FM's deterministic work counters over the run (fm.Counts): moves
	// committed to a pass's log, moves kept in the best prefixes, and passes.
	// They depend only on the inputs, never on Workers or the clock.
	FMMoves  int
	FMKept   int
	FMPasses int

	CoarsenBytes     uint64 // bytes allocated during hierarchy construction
	CoarseSolveBytes uint64 // ... during the coarse solve
	ProjectBytes     uint64 // ... during projection + boundary rebuilds
	RefineBytes      uint64 // ... during per-level refinement
}

// The V-cycle's size switches. They are constants rather than knobs because
// every caller runs with these values, and each is what measurement chose:
//
//   - lpMinNodes: levels this large refine with label propagation
//     (kl.Propagate) instead of climb and FM, whose Theta(n·parts) gain
//     structures dominate wall time and allocation at the million-node tier.
//     It sits above every committed sub-million benchmark case, so only the
//     1M-and-up tiers take it.
//   - coloredFMMinNodes: levels this large run FM on the colored schedule
//     (fm.RefineColored), whose coloring and merge overhead is amortized by
//     the fanned-out gain evaluation only on big levels. Below it the serial
//     heap pass stays: running the colored schedule on every level made
//     multilevel-kl on a 10k-node power-law graph 1.09x slower (median op
//     time over seeds 1-6, the benchmark's powerlaw-10k workload; per seed
//     0.86-1.25x) for a 1.8% better cut.
//   - maxLevels bounds the coarsening hierarchy's depth.
const (
	lpMinNodes        = 250_000
	coloredFMMinNodes = 50_000
	maxLevels         = 30
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.CoarsestSize == 0 {
		out.CoarsestSize = 64
	}
	if out.RefinePasses == 0 {
		out.RefinePasses = 4
	}
	return out
}

// allocSnap returns the process's cumulative heap allocation when metering
// is on, 0 otherwise. Phase counters are deltas between snapshots.
func allocSnap(enabled bool) uint64 {
	if !enabled {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// hierarchyScratch owns the V-cycle's reusable working memory: the matching
// vectors and order permutation (reused level to level — they shrink with
// the graph), the contraction buffers (graph.ContractScratch), the per-level
// fine→coarse maps (reused run to run), the FM refinement arena, and the
// ping-pong Assign vectors of intermediate uncoarsening levels. Partition
// checks one out of a package pool per call and returns it at the end, so
// bench loops and the partd service reuse the arena across runs; everything
// that escapes a run (the returned partition, the hierarchy's coarse graphs)
// is allocated outside the scratch.
type hierarchyScratch struct {
	match    []int
	order    []int
	pref     []int32
	coarse   [][]int // per-level CoarseOf buffers (pool reuse only)
	contract graph.ContractScratch
	fm       fm.Scratch
	// pingpong holds the two intermediate-level partitions the uncoarsening
	// loop alternates between; the finest level allocates fresh (it is the
	// returned result).
	pingpong [2]*partition.Partition
}

var hierarchyPool = sync.Pool{New: func() any { return new(hierarchyScratch) }}

// coarseBuf returns the scratch's CoarseOf buffer for hierarchy level li,
// sized to n.
func (hs *hierarchyScratch) coarseBuf(li, n int) []int {
	for len(hs.coarse) <= li {
		hs.coarse = append(hs.coarse, nil)
	}
	return ensureInts(&hs.coarse[li], n)
}

// levelPartition returns one of the two ping-pong partitions, sized for
// (n, parts). The uncoarsening loop alternates slots, so the partition a
// projection reads (p) is never the one it writes (fine).
func (hs *hierarchyScratch) levelPartition(slot, n, parts int) *partition.Partition {
	p := hs.pingpong[slot]
	if p == nil || p.Parts != parts || cap(p.Assign) < n {
		p = partition.New(n, parts)
		hs.pingpong[slot] = p
	} else {
		p.Assign = p.Assign[:n]
	}
	return p
}

func ensureInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

func ensureInt32s(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

// BuildHierarchy coarsens g level by level until it has at most
// coarsestSize nodes, maxLevels is reached, or matching stops making
// progress, spreading each level's matching and contraction over `workers`
// goroutines (<= 0 selects GOMAXPROCS; any value gives the same hierarchy).
// It returns the fine-to-coarse levels (levels[0].Graph == g) and the
// coarsest graph. Exposed for tests and for benchmarks that inspect the
// hierarchy.
func BuildHierarchy(g *graph.Graph, coarsestSize, maxLevels int, rng *rand.Rand, workers int) ([]Level, *graph.Graph) {
	hs := hierarchyPool.Get().(*hierarchyScratch)
	defer hierarchyPool.Put(hs)
	return hs.buildHierarchy(g, coarsestSize, maxLevels, rng, workers, false)
}

// buildHierarchy is BuildHierarchy drawing the matching/contraction buffers
// from hs. With pooledCoarse, the per-level CoarseOf maps also come from the
// scratch — only legal when the returned levels do not outlive the scratch
// checkout (Partition's private use); exported callers get fresh maps.
func (hs *hierarchyScratch) buildHierarchy(g *graph.Graph, coarsestSize, maxLevels int, rng *rand.Rand, workers int, pooledCoarse bool) ([]Level, *graph.Graph) {
	var levels []Level
	cur := g
	for len(levels) < maxLevels && cur.NumNodes() > coarsestSize {
		var coarseOf []int
		if pooledCoarse {
			coarseOf = hs.coarseBuf(len(levels), cur.NumNodes())
		} else {
			coarseOf = make([]int, cur.NumNodes())
		}
		coarse := hs.coarsen(cur, rng, workers, coarseOf)
		// Stop when matching found nothing to merge — or almost nothing
		// (under 5% of nodes): a star center or contracted hub can absorb
		// one neighbor per level forever, so without the stall cut a
		// degenerate graph would burn all maxLevels levels shrinking by a
		// node at a time. Real meshes and RGGs merge 40–50% per level and
		// never come near the threshold.
		if coarse.NumNodes() >= cur.NumNodes() || cur.NumNodes()-coarse.NumNodes() < cur.NumNodes()/20 {
			break
		}
		levels = append(levels, Level{Graph: cur, CoarseOf: coarseOf})
		cur = coarse
	}
	return levels, cur
}

// Partition coarsens g, partitions the coarsest graph with inner, and
// projects the result back up the hierarchy with boundary refinement at
// every level.
func Partition(g *graph.Graph, cfg Config, inner Partitioner) (*partition.Partition, error) {
	c := cfg.withDefaults()
	if c.Parts <= 0 {
		return nil, fmt.Errorf("multilevel: invalid part count %d", c.Parts)
	}
	if inner == nil {
		return nil, fmt.Errorf("multilevel: inner partitioner required")
	}
	rng := rand.New(rand.NewSource(c.Seed))
	hs := hierarchyPool.Get().(*hierarchyScratch)
	defer hierarchyPool.Put(hs)
	meter := c.Stats != nil

	var stats Stats
	start := time.Now()
	alloc := allocSnap(meter)
	levels, coarsest := hs.buildHierarchy(g, c.CoarsestSize, maxLevels, rng, c.Workers, true)
	stats.Levels = len(levels)
	stats.Coarsen = time.Since(start)
	stats.CoarsenBytes = allocSnap(meter) - alloc
	stats.HierarchyEdges = coarsest.NumEdges()
	for _, l := range levels {
		stats.HierarchyEdges += l.Graph.NumEdges()
	}

	// Partition the coarsest graph.
	start = time.Now()
	alloc = allocSnap(meter)
	p, err := inner(coarsest, c.Parts, rng)
	if err != nil {
		return nil, fmt.Errorf("multilevel: coarse partition: %w", err)
	}
	if err := p.Validate(coarsest); err != nil {
		return nil, fmt.Errorf("multilevel: inner partitioner result invalid: %w", err)
	}
	stats.CoarseSolve = time.Since(start)
	stats.CoarseSolveBytes = allocSnap(meter) - alloc

	// One Eval for the whole uncoarsening phase: projection preserves part
	// weights (coarse node weights are member sums) and part cuts (coarse
	// edge weights are cross-member sums), so the aggregates carry over
	// verbatim and only refinement moves touch them. Its trackers — the
	// boundary set every refiner seeds its scans from, and the volume counts
	// under CommVolume — key on node identity, which projection changes, so
	// Track rebuilds them per level by sharded scans (every fine node's slot
	// is owned by exactly one par chunk, so any width writes the same
	// arrays). Reserve then presizes those trackers for the finest level, so
	// each level's Track reslices within capacity instead of reallocating
	// every time the hierarchy grows back.
	ev := partition.NewEval(coarsest, p)
	ev.Track(coarsest, p, c.Objective, c.Workers)
	ev.Reserve(g.NumNodes(), c.Parts)
	// Same for FM's Theta(n*parts) connectivity table: growing it level by
	// level as the hierarchy unwinds would reallocate at nearly every step
	// for about twice the finest level's bytes.
	hs.fm.Reserve(g.NumNodes(), c.Parts)
	fmBefore := hs.fm.Counts()

	for i := len(levels) - 1; i >= 0; i-- {
		lvl := levels[i]
		start = time.Now()
		alloc = allocSnap(meter)
		n := lvl.Graph.NumNodes()
		var fine *partition.Partition
		if i == 0 {
			// The finest partition is the returned result; it must own its
			// memory, so it alone is allocated fresh.
			fine = partition.New(n, c.Parts)
		} else {
			// Intermediate levels ping-pong between two pooled partitions:
			// the one projected into (fine) is never the one read (p).
			fine = hs.levelPartition(i%2, n, c.Parts)
		}
		coarseAssign, coarseOf := p.Assign, lvl.CoarseOf
		par.For(c.Workers, len(fine.Assign), func(_, lo, hi int) {
			fa := fine.Assign
			for v := lo; v < hi; v++ {
				fa[v] = coarseAssign[coarseOf[v]]
			}
		})
		ev.Track(lvl.Graph, fine, c.Objective, c.Workers)
		stats.Project += time.Since(start)
		stats.ProjectBytes += allocSnap(meter) - alloc
		start = time.Now()
		alloc = allocSnap(meter)
		kcfg := kl.Config{Objective: c.Objective, MaxPasses: c.RefinePasses, Workers: c.Workers, Stop: c.Stop}
		// fmPass runs this level's FM refinement: the colored schedule on
		// levels of at least coloredFMMinNodes, the serial heap pass below
		// (both share hs.fm's arena). Under CommVolume, which fm does not
		// support, it is skipped.
		fmPass := func(passes int) {
			if c.Objective == partition.CommVolume {
				return
			}
			t := time.Now()
			cfg := fm.Config{MaxPasses: passes, Workers: c.Workers, Objective: c.Objective, Stop: c.Stop, Scratch: &hs.fm}
			if n >= coloredFMMinNodes {
				fm.RefineColored(lvl.Graph, fine, ev, cfg)
			} else {
				fm.Refine(lvl.Graph, fine, ev, cfg)
			}
			stats.RefineFM += time.Since(t)
		}
		climb := func(f func()) {
			t := time.Now()
			f()
			stats.RefineClimb += time.Since(t)
		}
		switch {
		case c.Stop != nil && c.Stop():
			// Cancellation between levels: skip this level's refinement
			// entirely but keep projecting — the loop must reach levels[0]
			// for the partition to be a valid answer for g.
		case n >= lpMinNodes:
			// Million-node levels: the KL/FM gain structures (Theta(n·parts)
			// connectivity, gain heaps) dominate wall time and allocation up
			// here, so refine with the size-constrained label-propagation
			// rule instead, then drain any inherited imbalance.
			t := time.Now()
			kl.Propagate(lvl.Graph, fine, ev, kcfg)
			stats.RefineLP += time.Since(t)
			climb(func() { kl.Rebalance(lvl.Graph, fine, ev, kcfg) })
		case c.Refiner == RefineKLFM:
			// Climb first (each pass is cheap and takes every strictly
			// improving move), then a single FM pass to slide through the
			// zero-gain plateaus steepest descent cannot cross, then a final
			// climb-and-rebalance to harvest what FM exposed. Under CommVolume
			// the combination degrades to pure colored climbing.
			climb(func() { kl.Climb(lvl.Graph, fine, ev, kcfg) })
			fmPass(1)
			once := kcfg
			once.MaxPasses = 1
			climb(func() { kl.Refine(lvl.Graph, fine, ev, once) })
		case c.Refiner == RefineFM:
			fmPass(c.RefinePasses)
			climb(func() { kl.Rebalance(lvl.Graph, fine, ev, kcfg) })
		}
		stats.Refine += time.Since(start)
		stats.RefineBytes += allocSnap(meter) - alloc
		p = fine
	}
	if c.Stats != nil {
		fmAfter := hs.fm.Counts()
		stats.FMMoves = fmAfter.Moves - fmBefore.Moves
		stats.FMKept = fmAfter.Kept - fmBefore.Kept
		stats.FMPasses = fmAfter.Passes - fmBefore.Passes
		*c.Stats = stats
	}
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("multilevel: projection produced invalid partition: %w", err)
	}
	return p, nil
}
