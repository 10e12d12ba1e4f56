// Package algo is the unified entry point to every graph partitioner in
// this repository. Each algorithm registers itself under a stable name
// ("dknux", "rsb", "multilevel-kl", ...) with a declared set of input
// constraints, and callers — the CLIs, the benchmark harness, and tests —
// select algorithms by name instead of hard-coding per-package call sites.
//
// The registry makes every partitioner satisfy one contract, checked by the
// conformance tests in this package: given a graph and Options, it returns a
// valid k-way partition, balanced within BalanceTolerance, and is
// deterministic for a fixed Options.Seed.
package algo

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// BalanceTolerance is the registry-wide balance contract: every registered
// partitioner must produce parts whose node weight is at most
// (1 + BalanceTolerance) x the ideal W/parts on the conformance suite. It is
// deliberately loose — individual algorithms (KL rebalancing, FM's slack,
// the GA's imbalance penalty) enforce much tighter balance — and exists so
// no registered algorithm can silently trade all balance for cut.
const BalanceTolerance = 0.30

// Options carries every knob a registered partitioner may consult. A zero
// value (plus Parts) is a sensible request; algorithms ignore fields they
// have no use for, so one Options works across the whole registry.
type Options struct {
	Parts     int                 // number of parts (required, >= 1)
	Objective partition.Objective // fitness for the stochastic algorithms
	Seed      int64               // RNG seed; equal Options give equal results

	// Genetic-algorithm family (dknux, knux, ux, 2pt, multilevel-ga).
	Generations int // default 200
	PopSize     int // total population across islands; default 320
	Islands     int // subpopulations; default 16, 1 = single population
	EvalWorkers int // parallel fitness evaluation width (0 = auto)

	// Refinement family (kl, fm, multilevel-*).
	RefinePasses int // 0 = algorithm default (unlimited for kl, 4 per level for multilevel)
	CoarsestSize int // multilevel: stop coarsening at this many nodes; 0 = 64
	// Workers bounds the goroutines the parallel phases may use: the
	// multilevel pipeline's coarsening/contraction AND its uncoarsening
	// (projection, boundary rebuilds, colored refinement), plus the flat
	// kl/fm refiners' gain evaluation (0 = auto). Like EvalWorkers, it is a
	// pure speed knob: results are bit-identical for every value.
	Workers int

	// Spectral family (rsb, multilevel-rsb).
	// LanczosIter caps the Krylov dimension of each Fiedler-vector solve
	// (0 = the solver default, currently 40). Lanczos with full
	// reorthogonalization costs O(LanczosIter² · n) per bisection level, so
	// this knob is the budget that keeps spectral bisection's runtime
	// bounded and predictable on large graphs.
	LanczosIter int

	// Ctx, when non-nil, requests cooperative cancellation: the iterative
	// algorithms poll it at their natural serial checkpoints — between
	// refinement passes (kl, fm), between uncoarsening levels (multilevel),
	// and between generations/epochs (the GA family) — and return their
	// current partition early once it is done. The returned partition is
	// still a valid k-way partition (every checkpoint sits at a consistent
	// state), but it is a *partial* answer: callers that care must check
	// Ctx.Err() themselves after Run returns — the service engine does, and
	// discards cancelled results instead of caching them. Geometric and
	// spectral algorithms run to completion regardless; they are fast and
	// have no safe mid-run checkpoint. Never part of any cache key.
	Ctx context.Context

	// MultilevelStats, when non-nil, receives the phase timing/allocation
	// breakdown of a multilevel run (the benchmark harness uses it to
	// attribute refine wall time per refiner family). Output-only: it never
	// affects the partition and is never part of any cache key.
	MultilevelStats *multilevel.Stats
}

// stop converts Ctx into the stop-polling callback the iterative packages
// accept: nil (never stop) when no context was supplied, so the zero Options
// costs nothing on the hot refinement paths.
func (o Options) stop() func() bool {
	if o.Ctx == nil {
		return nil
	}
	ctx := o.Ctx
	return func() bool { return ctx.Err() != nil }
}

func (o Options) withDefaults() Options {
	if o.Generations == 0 {
		o.Generations = 200
	}
	if o.PopSize == 0 {
		o.PopSize = 320
	}
	if o.Islands == 0 {
		o.Islands = 16
	}
	return o
}

// Info describes a registered algorithm and its input constraints, so
// callers can filter the registry (e.g. skip coordinate-requiring
// algorithms for an abstract graph) without trial and error.
type Info struct {
	Name        string
	Description string
	// NeedsCoords marks geometric algorithms (ibp, rcb) that require the
	// graph to carry an embedding.
	NeedsCoords bool
	// PowerOfTwoParts marks recursive-bisection algorithms (rsb, rcb, rgb)
	// that only support 2^d parts.
	PowerOfTwoParts bool
	// Stochastic marks algorithms whose result depends on Options.Seed
	// (they are still deterministic for a fixed seed).
	Stochastic bool
	// Objectives lists the non-default objectives the algorithm honors.
	// TotalCut (the zero Options.Objective) is supported by every algorithm
	// and never listed; an algorithm that honors only the default declares
	// nothing. Run rejects a request whose objective the algorithm does not
	// declare, so a caller can never silently receive a cut-optimized
	// partition when it asked for, say, communication volume.
	Objectives []partition.Objective
}

// SupportsObjective reports whether the algorithm honors objective o.
// TotalCut is supported universally; any other objective must be declared in
// Objectives.
func (i Info) SupportsObjective(o partition.Objective) bool {
	if o == partition.TotalCut {
		return true
	}
	for _, d := range i.Objectives {
		if d == o {
			return true
		}
	}
	return false
}

// Partitioner is the unified interface every algorithm adapts to.
type Partitioner interface {
	Info() Info
	Partition(g *graph.Graph, opt Options) (*partition.Partition, error)
}

type funcPartitioner struct {
	info Info
	run  func(g *graph.Graph, opt Options) (*partition.Partition, error)
}

func (p funcPartitioner) Info() Info { return p.info }
func (p funcPartitioner) Partition(g *graph.Graph, opt Options) (*partition.Partition, error) {
	return p.run(g, opt)
}

// New wraps a function as a Partitioner.
func New(info Info, run func(g *graph.Graph, opt Options) (*partition.Partition, error)) Partitioner {
	return funcPartitioner{info: info, run: run}
}

var (
	mu       sync.RWMutex
	registry = map[string]Partitioner{}
)

// Register adds p to the registry. Registering an empty or duplicate name
// panics: names are package-level constants, so a collision is a programming
// error.
func Register(p Partitioner) {
	name := p.Info().Name
	if name == "" {
		panic("algo: Register with empty name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", name))
	}
	registry[name] = p
}

// Get returns the partitioner registered under name, or an error listing the
// available names.
func Get(name string) (Partitioner, error) {
	mu.RLock()
	p, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (available: %v)", name, Names())
	}
	return p, nil
}

// Names returns every registered name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run looks up name, validates the request against the algorithm's declared
// constraints, and partitions g.
func Run(g *graph.Graph, name string, opt Options) (*partition.Partition, error) {
	p, err := Get(name)
	if err != nil {
		return nil, err
	}
	if opt.Parts <= 0 {
		return nil, fmt.Errorf("algo: %s: invalid part count %d", name, opt.Parts)
	}
	info := p.Info()
	if info.NeedsCoords && !g.HasCoords() {
		return nil, fmt.Errorf("algo: %s requires a geometric embedding and the graph has none", name)
	}
	if info.PowerOfTwoParts && opt.Parts&(opt.Parts-1) != 0 {
		return nil, fmt.Errorf("algo: %s requires a power-of-two part count, got %d", name, opt.Parts)
	}
	if !info.SupportsObjective(opt.Objective) {
		return nil, fmt.Errorf("algo: %s does not support objective %s", name, opt.Objective.FlagName())
	}
	return p.Partition(g, opt)
}
