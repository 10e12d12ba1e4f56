package main

import (
	"fmt"
	"math"
)

// metricDef declares one reported metric. A run prints every end-to-end
// metric (trace off) or every per-layer metric (trace on) for every
// workload, so this list and BENCHMARK.json name the same metrics with the
// same units; the smoke test holds the two together.
type metricDef struct {
	name, unit string
	perLayer   bool
}

var metricDefs = []metricDef{
	// End to end: what a caller of the library or of partd sees.
	{"setup_s", "s", false},
	{"op_ms_p50", "ms", false},
	{"ops_per_s", "1/s", false},
	{"cut", "edges", false},
	{"balance", "ratio", false},

	// Per layer, named after the package that does the work. A layer that
	// does not run in a workload's op (lp on powerlaw-10k, the V-cycle in
	// ga-incremental, the service outside partd-mixed) reports 0.
	{"multilevel.coarsen_s", "s", true},
	{"multilevel.coarsen_mb", "MiB", true},
	{"multilevel.levels", "count", true},
	{"graph.hierarchy_edges", "count", true},
	{"graph.level1_shrink", "ratio", true},
	{"multilevel.coarse_solve_s", "s", true},
	{"multilevel.project_s", "s", true},
	{"multilevel.refine_s", "s", true},
	{"multilevel.refine_mb", "MiB", true},
	{"multilevel.refine_other_s", "s", true},
	{"multilevel.unattributed_s", "s", true},
	{"lp.refine_s", "s", true},
	{"kl.climb_s", "s", true},
	{"fm.refine_s", "s", true},
	{"partition.boundary_nodes", "count", true},
	{"gio.parse_s", "s", true},
	{"gio.parse_mb_per_s", "MiB/s", true},
	{"ga.offspring_per_s", "1/s", true},
	{"partition.new_eval_us", "us", true},
	{"ga.crossover_us", "us", true},
	{"kl.hill_climb_us", "us", true},
	{"incremental.moved_frac", "ratio", true},
	{"runtime.alloc_mb_per_op", "MiB", true},
	{"process.peak_rss_mb", "MiB", true},
	{"service.overhead_ms_p50", "ms", true},
	{"service.compute_ms_p50", "ms", true},
	{"service.job_ms_tail", "ms", true},
	{"service.upload_ms_p50", "ms", true},
	{"service.cache_hit_ratio", "ratio", true},
	{"service.coalesced", "count", true},
	{"service.store_parses", "count", true},
	{"service.store_hashes", "count", true},
	{"service.store_dedups", "count", true},
	{"service.cache_evictions", "count", true},
	{"service.store_evictions", "count", true},
	{"trace.overhead_frac", "ratio", true},
}

// Settings shared by every workload.
const (
	parts     = 8
	algoName  = "multilevel-kl"
	plDegree  = 4 // edges each power-law node attaches with
	gaPop     = 320
	gaIslands = 16
	// gaElites mirrors the GA engine's default: every island keeps its two
	// fittest members, so it breeds per generation its population minus two.
	gaElites      = 2
	clients       = 2   // partd-mixed closed-loop clients, one per core of a 2-core machine
	jobSeeds      = 4   // distinct job seeds per stored graph in partd-mixed
	uploadFrac    = 0.1 // share of partd-mixed requests that are uploads
	skewMaxWeight = 4   // node-weight ceiling of partd-mixed's new graphs
	setupRuns     = 3   // fresh set-ups per run; setup_s is their median
)

// scale fixes every workload size. "full" is the benchmark; "smoke" runs the
// same code paths on toy inputs for the tests.
type scale struct {
	rggNodes    int
	plNodes     int
	gaBase      int // nodes of each ga-incremental base mesh
	gaAdded     int // nodes each refinement adds
	gaInstances int
	gaGens      int
	poolSizes   []int // partd-mixed stored meshes
	newGraphs   int   // partd-mixed new-graph uploads available per client
}

var scales = map[string]scale{
	"full": {
		rggNodes: 500_000, plNodes: 10_000,
		gaBase: 1000, gaAdded: 200, gaInstances: 4, gaGens: 30,
		poolSizes: []int{2000, 3000, 4000, 5000, 6500, 8000}, newGraphs: 200,
	},
	"smoke": {
		rggNodes: 20_000, plNodes: 2_000,
		gaBase: 150, gaAdded: 30, gaInstances: 2, gaGens: 4,
		poolSizes: []int{300, 500, 800}, newGraphs: 10,
	},
}

// rggRadius connects n uniform points in the unit square to about ten
// neighbors each (a little under pi*r^2*n, for the points near the edges).
// At that degree coarsening outweighs refinement on rgg-500k.
func rggRadius(n int) float64 { return math.Sqrt(11 / (math.Pi * float64(n))) }

// workload is one input family and the way it is measured. Why each exists
// is in README.md and BENCHMARK.json.
type workload struct {
	name string
	kind string // "vcycle", "ga" or "partd"
}

var workloads = []workload{
	{"rgg-500k", "vcycle"},
	{"powerlaw-10k", "vcycle"},
	{"ga-incremental", "ga"},
	{"partd-mixed", "partd"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// libWidth is the parallelism the library workloads run at: GOMAXPROCS,
// Workers and EvalWorkers alike. On a shared 2-vCPU machine an op at width 2
// swung by about ±10% from run to run (the V-cycle's and the GA's barriers
// wait on whichever vCPU the host took away), against about ±2.5% at width
// 1, so the benchmark measures one core. The results are the same at every
// width. partd runs with its defaults, which use every core.
const libWidth = 1
