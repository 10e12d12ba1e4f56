package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// SchemaVersion identifies the JSON layout of Report. Bump it on any
// incompatible change so downstream tooling (the CI regression gate, perf
// dashboards) can refuse mixed comparisons instead of misreading fields.
const SchemaVersion = "repro-bench/v1"

// Result is one (case, algorithm) measurement of a benchmark run. Quality
// numbers (cut, balance) are deterministic for a fixed seed; timing numbers
// are environment-dependent and excluded from regression comparisons.
type Result struct {
	Case  string `json:"case"`
	Algo  string `json:"algo"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Parts int    `json:"parts"`
	Seed  int64  `json:"seed"`
	// Objective is the flag name of the objective the run optimized;
	// empty means "cut" (the default), so every pre-objective baseline
	// parses — and compares — unchanged.
	Objective string `json:"objective,omitempty"`

	Cut         float64 `json:"cut"`                   // Σ_q C(q)/2: total cut weight
	MaxPartCut  float64 `json:"max_part_cut"`          // max_q C(q): worst-part cost
	CommVolume  float64 `json:"comm_volume,omitempty"` // Σ_q V(q): total communication volume
	ImbalanceSq float64 `json:"imbalance_sq"`          // Σ_q (W(q)−W/n)²
	Balance     float64 `json:"balance"`               // max part weight / ideal; 1.0 is perfect

	WallNS  int64 `json:"wall_ns"`   // total wall time of Repeat runs
	NsPerOp int64 `json:"ns_per_op"` // WallNS / Repeat
	Repeat  int   `json:"repeat"`
	// BytesAlloc and Allocs are the heap bytes and allocation count one run
	// charged to this (case, algo) pair — runtime.MemStats TotalAlloc/Mallocs
	// deltas across the measurement divided by Repeat. They make allocation
	// regressions machine-checkable the same way cut regressions are; like
	// the timing fields they are environment-dependent (GC timing, worker
	// count) and never gated exactly, but unlike wall time they are stable
	// enough to hold to a coarse ratio. Omitted (zero) in pre-instrumentation
	// baselines, which therefore parse and compare unchanged.
	BytesAlloc int64 `json:"bytes_alloc,omitempty"`
	Allocs     int64 `json:"allocs,omitempty"`
	// Workers is the execution width the measurement was pinned to (the
	// -workers flag); omitted (zero) when the runner left it auto.
	Workers int `json:"workers,omitempty"`
	// The V-cycle's phases of a multilevel run (multilevel.Stats of the last
	// measured run): coarsening, the coarse solve and projection, timed, and
	// the hierarchy's depth and the edges it holds over all its graphs, the
	// input and the coarsest included. The counts depend only on the inputs,
	// never on the width; like every field here they are omitted (zero) for
	// non-multilevel algorithms and pre-instrumentation baselines, and only
	// the timings vary from run to run.
	CoarsenNS      int64 `json:"coarsen_ns,omitempty"`
	CoarseSolveNS  int64 `json:"coarse_solve_ns,omitempty"`
	ProjectNS      int64 `json:"project_ns,omitempty"`
	Levels         int   `json:"levels,omitempty"`
	HierarchyEdges int   `json:"hierarchy_edges,omitempty"`
	// The refine_*_ns fields break a multilevel run's refine phase down by
	// refiner family (multilevel.Stats of the last measured run): total,
	// label-propagation sweeps, KL colored climbs + rebalance, and FM
	// passes. Omitted (zero) for non-multilevel algorithms and for
	// pre-instrumentation baselines; like every timing field they are
	// environment-dependent and never gated.
	RefineNS      int64 `json:"refine_ns,omitempty"`
	RefineLPNS    int64 `json:"refine_lp_ns,omitempty"`
	RefineClimbNS int64 `json:"refine_climb_ns,omitempty"`
	RefineFMNS    int64 `json:"refine_fm_ns,omitempty"`
	// FM's deterministic work counters of the same run (multilevel.Stats):
	// moves made, moves kept and passes. Unlike the timings they depend only
	// on the inputs, so the moves a pass rolls back show at any width.
	FMMoves  int    `json:"fm_moves,omitempty"`
	FMKept   int    `json:"fm_kept,omitempty"`
	FMPasses int    `json:"fm_passes,omitempty"`
	Error    string `json:"error,omitempty"` // non-empty if the algorithm rejected the case
}

// Metric returns the result's value of the objective it optimized — Cut for
// the default, MaxPartCut for "maxcut", CommVolume for "commvol" — the number
// regression comparisons hold it to.
func (r Result) Metric() float64 {
	switch r.Objective {
	case "maxcut":
		return r.MaxPartCut
	case "commvol":
		return r.CommVolume
	default:
		return r.Cut
	}
}

// MetricName names the compared quantity for human-readable messages.
func (r Result) MetricName() string {
	switch r.Objective {
	case "maxcut":
		return "max_part_cut"
	case "commvol":
		return "comm_volume"
	default:
		return "cut"
	}
}

// Report is the machine-readable artifact a benchmark run emits; CI uploads
// it and diffs Cut against a checked-in baseline.
type Report struct {
	Schema    string   `json:"schema"`
	Suite     string   `json:"suite"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// Case is one graph instance of a benchmark suite.
type Case struct {
	Name  string
	Graph *graph.Graph
	Parts int
}

// SmallSuite is the fixed-seed suite the CI bench job runs on every push:
// small enough to finish in seconds, varied enough (triangulated mesh,
// structured grid, larger mesh at higher part count) to catch quality
// regressions in any algorithm family.
func SmallSuite() []Case {
	return []Case{
		{Name: "mesh-400-p4", Graph: gen.Mesh(400, gen.SuiteSeed+400), Parts: 4},
		{Name: "grid-32x32-p4", Graph: gen.Grid(32, 32), Parts: 4},
		{Name: "mesh-1500-p8", Graph: gen.Mesh(1500, gen.SuiteSeed+1500), Parts: 8},
	}
}

// ScaleSuite is the ~10k-node suite demonstrating the multilevel speed/
// quality win over flat refinement; heavier, run on demand and archived as
// BENCH JSON.
func ScaleSuite() []Case {
	return []Case{
		{Name: "mesh-10000-p8", Graph: gen.Mesh(10000, gen.SuiteSeed+10000), Parts: 8},
	}
}

// DiverseSuite stresses structure the mesh suites cannot: a power-law graph
// (hubs concentrate cut weight and defeat purely local refinement), a random
// geometric graph (high clustering, ragged boundaries), and a 3-D grid
// (the smallest separator grows quadratically with side length, unlike the
// 2-D suites' linear ones). All fixed-seed, like every suite.
func DiverseSuite() []Case {
	return []Case{
		{Name: "powerlaw-3000-p8", Graph: gen.PowerLaw(3000, 3, gen.SuiteSeed+3000), Parts: 8},
		{Name: "rgg-2000-p8", Graph: gen.RandomGeometric(rand.New(rand.NewSource(gen.SuiteSeed+2000)), 2000, 0.05), Parts: 8},
		{Name: "grid3d-12-p8", Graph: gen.Grid3D(12, 12, 12), Parts: 8},
	}
}

// WeightedSuite exercises skewed node weights end to end, making the
// weight-aware contracts (kl.Rebalance balancing weight rather than node
// count, weighted coarse levels) load-bearing in CI: a regression to
// count-based balancing moves cuts and balance on these cases immediately.
// Weights follow a Zipf law — a few nodes tens of times heavier than the
// unit majority.
func WeightedSuite() []Case {
	return []Case{
		{Name: "mesh-2000-skew-p8", Graph: gen.SkewWeights(gen.Mesh(2000, gen.SuiteSeed+2000), gen.SuiteSeed, 48), Parts: 8},
		{Name: "grid3d-10-skew-p4", Graph: gen.SkewWeights(gen.Grid3D(10, 10, 10), gen.SuiteSeed+1, 32), Parts: 4},
	}
}

// Scale100kSuite is the 100k-node suite: a random geometric graph at the
// scale the grid-bucketed generator made cheap (PR 4) and the Lanczos
// iteration budget made safe to gate (rsb's per-level solves are bounded, so
// the suite cannot spin). It exercises the parallel V-cycle end to end —
// fifteen-odd coarsening levels and the full parallel uncoarsening phase —
// plus the flat refiners and spectral bisection at six-figure node counts.
// The power-law case is the hub-heavy counterpart for the multilevel
// refiners only (CI runs the flat ones on the RGG case alone): its boundary
// tiles hold hubs adjacent to thousands of nodes, the shape that exposes
// superlinear refinement work, such as a coloring that rescans hubs or
// Rebalance's per-move boundary scan.
func Scale100kSuite() []Case {
	return []Case{
		{Name: "rgg-100000-p8", Graph: gen.RandomGeometric(rand.New(rand.NewSource(gen.SuiteSeed+100000)), 100000, 0.005), Parts: 8},
		{Name: "powerlaw-100000-p8", Graph: gen.PowerLaw(100000, 4, gen.SuiteSeed+100001), Parts: 8},
	}
}

// Scale1MSuite is the million-node tier: a 1M-node random geometric graph
// (radius chosen so expected degree ≈ n·π·r² ≈ 8, matching the 100k case's
// density) and a 1M-node power-law graph whose hubs stress the matching and
// refinement paths differently than the RGG's uniform locality. This is the
// scale where the V-cycle is allocation- and bandwidth-bound rather than
// compute-bound; the committed BENCH_scale1M.json gates the arena layer in CI
// (multilevel-kl and multilevel-fm only — flat refiners take minutes at this
// size).
func Scale1MSuite() []Case {
	return []Case{
		{Name: "rgg-1000000-p8", Graph: gen.RandomGeometric(rand.New(rand.NewSource(gen.SuiteSeed+1000000)), 1000000, 0.0016), Parts: 8},
		{Name: "powerlaw-1000000-p8", Graph: gen.PowerLaw(1000000, 4, gen.SuiteSeed+1000001), Parts: 8},
	}
}

// Scale10MSuite is the ten-million-node stretch case. It is never gated in
// per-push CI — only the scheduled benchtrend workflow runs it — so there is
// no committed baseline; the point is a long-horizon trend line at the scale
// the ROADMAP's north star names.
func Scale10MSuite() []Case {
	return []Case{
		{Name: "rgg-10000000-p8", Graph: gen.RandomGeometric(rand.New(rand.NewSource(gen.SuiteSeed+10000000)), 10000000, 0.0005), Parts: 8},
	}
}

// SuiteByName maps the -suite flag to a suite constructor.
func SuiteByName(name string) ([]Case, error) {
	switch name {
	case "small":
		return SmallSuite(), nil
	case "scale":
		return ScaleSuite(), nil
	case "scale100k":
		return Scale100kSuite(), nil
	case "scale1M":
		return Scale1MSuite(), nil
	case "scale10M":
		return Scale10MSuite(), nil
	case "diverse":
		return DiverseSuite(), nil
	case "weighted":
		return WeightedSuite(), nil
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (available: small, scale, scale100k, scale1M, scale10M, diverse, weighted)", name)
	}
}

// DefaultJSONAlgos is the algorithm set the JSON benchmark measures when the
// caller does not narrow it: every deterministic flat heuristic, the
// spectral and geometric baselines, and the multilevel pipelines. The GA
// family is opt-in (pass it explicitly) because its full budget dominates
// the suite's runtime.
func DefaultJSONAlgos() []string {
	return []string{"grow", "kl", "fm", "rsb", "ibp", "rcb", "multilevel-kl", "multilevel-fm", "multilevel-rsb"}
}

// RunJSON measures every (case, algorithm) pair and assembles the Report.
// Algorithms that reject a case (coordinate or part-count constraints)
// produce a Result with Error set rather than aborting the suite. repeat
// re-runs each measurement with the same seed — quality is identical, wall
// time is averaged in NsPerOp.
func RunJSON(suiteName string, cases []Case, algos []string, opt algo.Options, repeat int) *Report {
	if repeat <= 0 {
		repeat = 1
	}
	rep := &Report{
		Schema:    SchemaVersion,
		Suite:     suiteName,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range cases {
		for _, name := range algos {
			res := Result{
				Case:  c.Name,
				Algo:  name,
				Nodes: c.Graph.NumNodes(),
				Edges: c.Graph.NumEdges(),
				Parts: c.Parts,
				Seed:  opt.Seed,
			}
			if opt.Objective != partition.TotalCut {
				res.Objective = opt.Objective.FlagName()
			}
			o := opt
			o.Parts = c.Parts
			// Phase attribution rides along on every run: multilevel writes
			// the breakdown, everything else ignores the sink and the fields
			// stay zero (omitted). Repeated runs overwrite it, so the report
			// carries the last run's breakdown — one op, like NsPerOp.
			var mstats multilevel.Stats
			o.MultilevelStats = &mstats
			var msBefore, msAfter runtime.MemStats
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			p, err := algo.Run(c.Graph, name, o)
			for r := 1; r < repeat && err == nil; r++ {
				p, err = algo.Run(c.Graph, name, o)
			}
			res.WallNS = time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&msAfter)
			res.NsPerOp = res.WallNS / int64(repeat)
			res.Repeat = repeat
			res.Workers = opt.Workers
			res.CoarsenNS = mstats.Coarsen.Nanoseconds()
			res.CoarseSolveNS = mstats.CoarseSolve.Nanoseconds()
			res.ProjectNS = mstats.Project.Nanoseconds()
			res.Levels, res.HierarchyEdges = mstats.Levels, mstats.HierarchyEdges
			res.RefineNS = mstats.Refine.Nanoseconds()
			res.RefineLPNS = mstats.RefineLP.Nanoseconds()
			res.RefineClimbNS = mstats.RefineClimb.Nanoseconds()
			res.RefineFMNS = mstats.RefineFM.Nanoseconds()
			res.FMMoves, res.FMKept, res.FMPasses = mstats.FMMoves, mstats.FMKept, mstats.FMPasses
			// TotalAlloc/Mallocs are monotonic, so the delta is exactly what
			// the measured runs allocated (GC frees never subtract from it).
			res.BytesAlloc = int64(msAfter.TotalAlloc-msBefore.TotalAlloc) / int64(repeat)
			res.Allocs = int64(msAfter.Mallocs-msBefore.Mallocs) / int64(repeat)
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Cut = p.CutSize(c.Graph)
				res.MaxPartCut = p.MaxPartCut(c.Graph)
				res.CommVolume = p.CommVolume(c.Graph)
				res.ImbalanceSq = p.ImbalanceSq(c.Graph)
				res.Balance = p.Balance(c.Graph)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}

// WriteJSON serializes the report, indented so diffs of committed baselines
// stay readable.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report and validates its schema tag.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: report schema %q, this binary speaks %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Regression is one (case, algo, objective) triple whose objective metric got
// worse than the baseline allows, or that stopped producing a result at all.
type Regression struct {
	Case, Algo string
	// Objective is the triple's objective flag name; empty means "cut".
	Objective string
	// Metric names the compared quantity (cut, max_part_cut, comm_volume).
	Metric           string
	BaselineCut, Cut float64
	RelativeIncrease float64
	// Failed is set when the pair succeeded in the baseline but errored in
	// the current run — a total failure, worse than any metric increase.
	Failed string
}

func (r Regression) label() string {
	if r.Objective == "" {
		return fmt.Sprintf("%s/%s", r.Case, r.Algo)
	}
	return fmt.Sprintf("%s/%s[%s]", r.Case, r.Algo, r.Objective)
}

func (r Regression) String() string {
	metric := r.Metric
	if metric == "" {
		metric = "cut"
	}
	if r.Failed != "" {
		return fmt.Sprintf("%s: %s %.0f -> FAILED (%s)", r.label(), metric, r.BaselineCut, r.Failed)
	}
	return fmt.Sprintf("%s: %s %.0f -> %.0f (+%.1f%%)",
		r.label(), metric, r.BaselineCut, r.Cut, 100*r.RelativeIncrease)
}

// Compare diffs current against baseline and returns every (case, algo,
// objective) triple whose objective metric — cut for the default objective,
// max_part_cut for "maxcut", comm_volume for "commvol" — regressed by more
// than tol (0.10 = 10%), plus per-(case, objective) best-metric regressions
// under the synthetic algo name "best", plus hard failures (triples the
// baseline measured that now error). Triples present in only one report are
// ignored (suites may grow, and runs narrowed with -algos or -objective are
// only held to the baseline metrics of what they actually ran), as are
// timing fields (they are machine-dependent). A zero-metric baseline only
// passes if the current metric is also zero.
func Compare(baseline, current *Report, tol float64) []Regression {
	type key struct{ c, a, o string }
	type caseKey struct{ c, o string }
	ran := map[key]bool{}
	failed := map[key]string{}
	for _, r := range current.Results {
		if r.Error == "" {
			ran[key{r.Case, r.Algo, r.Objective}] = true
		} else {
			failed[key{r.Case, r.Algo, r.Objective}] = r.Error
		}
	}
	// Best-of-case baselines consider only algorithms the current run also
	// measured: a run narrowed with -algos must not be held to the best
	// metric of an algorithm it never executed.
	base := map[key]float64{}
	baseBest := map[caseKey]float64{}
	metricName := map[caseKey]string{}
	var out []Regression
	for _, r := range baseline.Results {
		if r.Error != "" {
			continue
		}
		metricName[caseKey{r.Case, r.Objective}] = r.MetricName()
		// A triple the baseline measured but the current run errored on is a
		// hard regression: the algorithm stopped working on that case.
		if msg, nowFails := failed[key{r.Case, r.Algo, r.Objective}]; nowFails {
			out = append(out, Regression{
				Case: r.Case, Algo: r.Algo, Objective: r.Objective,
				Metric: r.MetricName(), BaselineCut: r.Metric(), Failed: msg,
			})
			continue
		}
		if !ran[key{r.Case, r.Algo, r.Objective}] {
			continue
		}
		base[key{r.Case, r.Algo, r.Objective}] = r.Metric()
		if b, ok := baseBest[caseKey{r.Case, r.Objective}]; !ok || r.Metric() < b {
			baseBest[caseKey{r.Case, r.Objective}] = r.Metric()
		}
	}
	// The current best of a case may come from any algorithm measured now,
	// including ones the baseline has never seen: a newcomer taking over a
	// case's best metric is an improvement, not a regression.
	curBest := map[caseKey]float64{}
	for _, r := range current.Results {
		if r.Error != "" {
			continue
		}
		ck := caseKey{r.Case, r.Objective}
		if bc, seen := curBest[ck]; !seen || r.Metric() < bc {
			curBest[ck] = r.Metric()
		}
		b, ok := base[key{r.Case, r.Algo, r.Objective}]
		if !ok {
			continue
		}
		if exceeds(r.Metric(), b, tol) {
			out = append(out, Regression{
				Case: r.Case, Algo: r.Algo, Objective: r.Objective,
				Metric: r.MetricName(), BaselineCut: b, Cut: r.Metric(),
				RelativeIncrease: rel(r.Metric(), b),
			})
		}
	}
	for ck, b := range baseBest {
		cur, ok := curBest[ck]
		if !ok {
			continue
		}
		if exceeds(cur, b, tol) {
			out = append(out, Regression{
				Case: ck.c, Algo: "best", Objective: ck.o,
				Metric: metricName[ck], BaselineCut: b, Cut: cur,
				RelativeIncrease: rel(cur, b),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Case != out[j].Case {
			return out[i].Case < out[j].Case
		}
		if out[i].Algo != out[j].Algo {
			return out[i].Algo < out[j].Algo
		}
		return out[i].Objective < out[j].Objective
	})
	return out
}

// CompareExact diffs current against baseline and reports every quality
// field of a shared (case, algo) pair that differs at all — cut,
// max_part_cut, comm_volume, imbalance_sq or balance, in either direction —
// plus pairs that succeed in one report and error in the other. Where the
// baseline row carries the V-cycle's deterministic counters (nonzero
// levels, hierarchy_edges, fm_moves, fm_kept or fm_passes), each of them
// must match too; older and non-multilevel rows carry none, so for them
// only the quality fields are compared. It is the determinism gate: a run
// with Workers > 1 must reproduce a single-worker run exactly, work counts
// included, so even an improvement is a failure here (it would mean the
// worker count leaked into the result). Pairs present in only one report
// are ignored, as are timing fields; but if the reports share no pairs at
// all, that is reported as a failure — a gate that compared nothing must
// not pass.
func CompareExact(baseline, current *Report) []string {
	type key struct{ c, a, o string }
	cur := map[key]Result{}
	for _, r := range current.Results {
		cur[key{r.Case, r.Algo, r.Objective}] = r
	}
	shared := 0
	var out []string
	for _, b := range baseline.Results {
		c, ok := cur[key{b.Case, b.Algo, b.Objective}]
		if !ok {
			continue
		}
		shared++
		label := b.Case + "/" + b.Algo
		if b.Objective != "" {
			label += "[" + b.Objective + "]"
		}
		switch {
		case b.Error == "" && c.Error != "":
			out = append(out, fmt.Sprintf("%s: baseline %s %.0f, current FAILED (%s)", label, b.MetricName(), b.Metric(), c.Error))
		case b.Error != "" && c.Error == "":
			out = append(out, fmt.Sprintf("%s: baseline FAILED (%s), current %s %.0f", label, b.Error, c.MetricName(), c.Metric()))
		case b.Error == "" && c.Error == "":
			for _, f := range []struct {
				name string
				b, c float64
			}{
				{"cut", b.Cut, c.Cut},
				{"max_part_cut", b.MaxPartCut, c.MaxPartCut},
				{"comm_volume", b.CommVolume, c.CommVolume},
				{"imbalance_sq", b.ImbalanceSq, c.ImbalanceSq},
				{"balance", b.Balance, c.Balance},
			} {
				if f.b != f.c {
					out = append(out, fmt.Sprintf("%s: %s %v != baseline %v", label, f.name, f.c, f.b))
				}
			}
			for _, f := range []struct {
				name string
				b, c int
			}{
				{"levels", b.Levels, c.Levels},
				{"hierarchy_edges", b.HierarchyEdges, c.HierarchyEdges},
				{"fm_moves", b.FMMoves, c.FMMoves},
				{"fm_kept", b.FMKept, c.FMKept},
				{"fm_passes", b.FMPasses, c.FMPasses},
			} {
				if f.b != 0 && f.b != f.c {
					out = append(out, fmt.Sprintf("%s: %s %d != baseline %d", label, f.name, f.c, f.b))
				}
			}
		}
	}
	if shared == 0 {
		out = append(out, "no shared (case, algo) pairs between baseline and current — nothing was compared")
	}
	sort.Strings(out)
	return out
}

func exceeds(cur, base, tol float64) bool {
	if base == 0 {
		return cur > 0
	}
	return cur > base*(1+tol)
}

func rel(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return cur/base - 1
}
