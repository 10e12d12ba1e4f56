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

	"repro/internal/dpga"
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

	// Genetic-algorithm family (dknux, knux, ux, 2pt, multilevel-ga). Zero
	// selects the algorithm's default: 200 generations of 320 individuals
	// over 16 islands (dpga's) for the flat GA, 60 of 64 over 4 for
	// multilevel-ga's coarse solve. Check refuses an island count that is
	// not a power of two (bad_islands) and a population above MaxPopSize or
	// too small to give every island the 2 elites plus one offspring
	// (bad_pop_size).
	Generations int
	PopSize     int // total population across islands
	Islands     int // subpopulations; 1 = single population
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

// Get returns the partitioner registered under name, or an unknown_algo
// *RequestError listing the available names.
func Get(name string) (Partitioner, error) {
	mu.RLock()
	p, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, refuse("unknown_algo", "unknown algorithm %q (available: %v)", name, Names())
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

// RequestError is a request the registry refuses before running anything.
// Code is the stable machine-readable reason, which partd puts on the wire:
// unknown_algo, bad_parts, needs_coords, parts_not_power_of_two,
// unsupported_objective, bad_islands, or bad_pop_size.
type RequestError struct {
	Code    string
	Message string
}

func (e *RequestError) Error() string { return "algo: " + e.Message }

func refuse(code, format string, args ...any) *RequestError {
	return &RequestError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Check validates a request against the registry without running it: a
// registered name, opt.Parts in [1, partition.MaxParts], the algorithm's
// declared constraints, and, for the GA family, the population the run
// would build (see Options.PopSize). It deliberately allows more parts than
// nodes: the multilevel pipeline runs its inner solver on a coarsest graph
// of CoarsestSize nodes whatever the part count.
func Check(g *graph.Graph, name string, opt Options) *RequestError {
	_, re := check(g, name, opt)
	return re
}

// Run checks the request (see Check) and partitions g.
func Run(g *graph.Graph, name string, opt Options) (*partition.Partition, error) {
	p, re := check(g, name, opt)
	if re != nil {
		return nil, re
	}
	return p.Partition(g, opt)
}

func check(g *graph.Graph, name string, opt Options) (Partitioner, *RequestError) {
	p, err := Get(name)
	if err != nil {
		return nil, err.(*RequestError)
	}
	info := p.Info()
	switch {
	case opt.Parts < 1 || opt.Parts > partition.MaxParts:
		return nil, refuse("bad_parts", "%s: parts must be in [1, %d], got %d", name, partition.MaxParts, opt.Parts)
	case info.NeedsCoords && !g.HasCoords():
		return nil, refuse("needs_coords", "%s requires a geometric embedding and the graph has none", name)
	case info.PowerOfTwoParts && opt.Parts&(opt.Parts-1) != 0:
		return nil, refuse("parts_not_power_of_two", "%s requires a power-of-two part count, got %d", name, opt.Parts)
	case !info.SupportsObjective(opt.Objective):
		return nil, refuse("unsupported_objective", "%s does not support objective %s", name, opt.Objective.FlagName())
	}
	if b, ok := gaBudgets[name]; ok {
		if re := checkGA(name, b.fill(opt)); re != nil {
			return nil, re
		}
	}
	return p, nil
}

// MaxPopSize is the largest total GA population a request may ask for. The
// GA builds its whole population up front, an assignment vector and cached
// aggregates per individual, so the ceiling bounds that allocation.
const MaxPopSize = 1 << 16

// minIslandPop is the smallest island the GA runs: its 2 elites plus one
// offspring.
const minIslandPop = 3

// gaBudget is the population a GA-family algorithm runs with where a request
// leaves the field zero. Check validates against it and the run applies it,
// so the two cannot disagree.
type gaBudget struct{ popSize, islands, generations int }

// gaBudgets holds the defaults of every GA-family algorithm: dpga's (the
// paper's 320 over 16 islands) for the flat GA, and a reduced budget for
// multilevel-ga, whose GA solves only the small coarsest graph.
var (
	flatGA    = gaBudget{popSize: dpga.DefaultPopSize, islands: dpga.DefaultIslands, generations: 200}
	gaBudgets = map[string]gaBudget{
		"dknux": flatGA, "knux": flatGA, "ux": flatGA, "2pt": flatGA,
		"multilevel-ga": {popSize: 64, islands: 4, generations: 60},
	}
)

// fill returns opt with b's values in its zero GA fields.
func (b gaBudget) fill(opt Options) Options {
	if opt.PopSize == 0 {
		opt.PopSize = b.popSize
	}
	if opt.Islands == 0 {
		opt.Islands = b.islands
	}
	if opt.Generations == 0 {
		opt.Generations = b.generations
	}
	return opt
}

// checkGA refuses a population the island model cannot run: the islands
// must form a hypercube, and every island needs minIslandPop members.
func checkGA(name string, opt Options) *RequestError {
	switch n := opt.Islands; {
	case n < 0 || n&(n-1) != 0:
		return refuse("bad_islands", "%s: islands must be a power of two, got %d", name, n)
	case opt.PopSize < 0 || opt.PopSize > MaxPopSize:
		return refuse("bad_pop_size", "%s: pop_size must be in [0, %d], got %d", name, MaxPopSize, opt.PopSize)
	case opt.PopSize/n < minIslandPop:
		return refuse("bad_pop_size", "%s: pop_size %d over %d islands leaves %d per island, need at least %d",
			name, opt.PopSize, n, opt.PopSize/n, minIslandPop)
	}
	return nil
}
