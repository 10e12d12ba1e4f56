// Command experiments regenerates every table and figure of the paper's
// evaluation section (see README.md for the experiment index), and runs the
// machine-readable benchmark suites CI tracks.
//
// Usage:
//
//	experiments                  # everything at paper scale (slow)
//	experiments -quick           # everything at smoke-test scale
//	experiments -table 3         # one table
//	experiments -figure conv     # one figure: 1 | conv | speedup
//	experiments -o report.txt    # also write the output to a file
//
// Benchmark mode emits a JSON artifact (schema internal/bench.SchemaVersion)
// and can gate against a checked-in baseline:
//
//	experiments -bench -suite small -json out.json
//	experiments -bench -suite small -json out.json -baseline bench/baseline.json -tol 0.10
//	experiments -bench -suite scale -algos kl,multilevel-kl -json bench.json
//
// Instead of a generated suite, -in benchmarks a graph file (METIS,
// edge-list, or native text, via internal/gio):
//
//	experiments -bench -in web.metis -parts 8 -algos kl,multilevel-kl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/paperdata"
	"repro/internal/partition"
)

var compare = flag.Bool("compare", false, "print a measured-vs-paper winner comparison after each table")

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced budget (fast smoke run)")
		table   = flag.Int("table", 0, "regenerate only this table (1-6)")
		figure  = flag.String("figure", "", "regenerate only this figure: 1 | conv | speedup | sweep | incr")
		outPath = flag.String("o", "", "also write the report to this file")
		runs    = flag.Int("runs", 0, "override run count")
		gens    = flag.Int("gens", 0, "override generations")
		workers = flag.Int("evalworkers", 0, "GA width: islands stepped at once, or offspring evaluated at once for a single population (0 = auto; results are identical for any value)")

		doBench   = flag.Bool("bench", false, "run the machine-readable benchmark suite instead of tables/figures")
		suite     = flag.String("suite", "small", "benchmark suite: small | scale | scale100k | scale1M | scale10M | diverse | weighted | fmpar (width-labeled parallel-FM report)")
		inPath    = flag.String("in", "", "benchmark a graph file instead of a generated suite (format from extension, or -informat)")
		inFormat  = flag.String("informat", "auto", "input graph format for -in: auto | metis | edgelist | text")
		parts     = flag.Int("parts", 8, "part count for -in")
		algos     = flag.String("algos", "", "comma-separated registry names to benchmark (default: the deterministic set)")
		casesCSV  = flag.String("cases", "", "comma-separated case names to keep from the suite (default: all; the scale1M CI smoke runs only the RGG case this way)")
		jsonPath  = flag.String("json", "", "write the benchmark report as JSON to this file")
		baseline  = flag.String("baseline", "", "compare cuts against this baseline report; exit 1 on regression")
		tol       = flag.Float64("tol", 0.10, "allowed relative cut increase vs the baseline")
		exact     = flag.Bool("exact", false, "require cuts identical to the baseline in both directions (the determinism gate)")
		repeat    = flag.Int("repeat", 1, "timing repetitions per (case, algorithm) pair")
		objective = flag.String("objective", "cut", "comma-separated objectives to benchmark: cut | maxcut | commvol (algorithms lacking one produce error rows)")
		mlWorkers = flag.Int("workers", 0, "parallel V-cycle goroutines: coarsening, contraction, projection, and colored refinement (0 = auto; results are identical for any value)")
		lanczos   = flag.Int("lanczos", 0, "rsb: Lanczos iteration budget per Fiedler solve (0 = default 40)")
		cpuProf   = flag.String("cpuprofile", "", "bench mode: write a CPU profile covering the measured runs to this file")
		memProf   = flag.String("memprofile", "", "bench mode: write a heap profile (after a forced GC) to this file when the suite finishes")
	)
	flag.Parse()

	if *doBench {
		runBench(benchRun{
			suite:    *suite,
			inPath:   *inPath,
			inFormat: *inFormat,
			parts:    *parts,
			algoCSV:  *algos,
			caseCSV:  *casesCSV,
			jsonPath: *jsonPath,
			baseline: *baseline,
			tol:      *tol,
			exact:    *exact,
			repeat:   *repeat,
			objCSV:   *objective,
			evalW:    *workers,
			workers:  *mlWorkers,
			lanczos:  *lanczos,
			cpuProf:  *cpuProf,
			memProf:  *memProf,
		})
		return
	}

	opt := bench.Paper()
	if *quick {
		opt = bench.Quick()
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	if *gens > 0 {
		opt.Generations = *gens
	}
	if *workers > 0 {
		opt.EvalWorkers = *workers
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "Experiment configuration: %+v\n\n", opt)
	start := time.Now()

	switch {
	case *table != 0:
		emitTable(out, *table, opt)
	case *figure != "":
		emitFigure(out, *figure, opt)
	default:
		for i := 1; i <= 6; i++ {
			emitTable(out, i, opt)
		}
		emitFigure(out, "1", opt)
		emitFigure(out, "conv", opt)
		emitFigure(out, "speedup", opt)
	}
	fmt.Fprintf(out, "total time: %s\n", time.Since(start).Round(time.Millisecond))
}

func emitTable(out io.Writer, id int, opt bench.Options) {
	fns := map[int]func(bench.Options) bench.Table{
		1: bench.Table1, 2: bench.Table2, 3: bench.Table3,
		4: bench.Table4, 5: bench.Table5, 6: bench.Table6,
	}
	fn, ok := fns[id]
	if !ok {
		fmt.Fprintln(os.Stderr, "experiments: no such table", id)
		os.Exit(1)
	}
	start := time.Now()
	t := fn(opt)
	fmt.Fprintln(out, t.Format())
	if *compare {
		fmt.Fprintln(out, paperdata.Compare(id, t).Format())
	}
	fmt.Fprintf(out, "[%s regenerated in %s]\n\n", t.ID, time.Since(start).Round(time.Millisecond))
}

// benchRun bundles the benchmark-mode flags.
type benchRun struct {
	suite    string
	inPath   string // when set, benchmark this file instead of a suite
	inFormat string
	parts    int
	algoCSV  string
	caseCSV  string // comma-separated case names to keep; "" = all
	jsonPath string
	baseline string
	tol      float64
	exact    bool
	repeat   int
	objCSV   string // comma-separated objectives; "" = cut only
	evalW    int    // GA fitness-evaluation width
	workers  int    // multilevel pipeline width
	lanczos  int    // rsb Lanczos iteration budget
	cpuProf  string // write a CPU profile of the measured runs here
	memProf  string // write a post-GC heap profile here after the suite
}

// runBench executes a JSON benchmark suite, optionally writes the artifact,
// and optionally gates against a baseline report: with -exact, any cut
// difference in either direction fails (the Workers determinism gate);
// otherwise any (case, algo) cut — or a case's best cut — regressing beyond
// tol fails.
func runBench(cfg benchRun) {
	var cases []bench.Case
	suiteName := cfg.suite
	if cfg.inPath != "" {
		f, err := gio.FormatByName(cfg.inFormat)
		if err != nil {
			fail(err)
		}
		g, err := gio.ReadGraphFile(cfg.inPath, f)
		if err != nil {
			fail(err)
		}
		name := fmt.Sprintf("%s-p%d", filepath.Base(cfg.inPath), cfg.parts)
		suiteName = "file"
		cases = []bench.Case{{Name: name, Graph: g, Parts: cfg.parts}}
	} else {
		var err error
		cases, err = bench.SuiteByName(cfg.suite)
		if err != nil {
			fail(err)
		}
	}
	if cfg.caseCSV != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(cfg.caseCSV, ",") {
			if n = strings.TrimSpace(n); n != "" {
				keep[n] = true
			}
		}
		var kept []bench.Case
		for _, c := range cases {
			if keep[c.Name] {
				kept = append(kept, c)
				delete(keep, c.Name)
			}
		}
		if len(keep) > 0 {
			for n := range keep {
				fail(fmt.Errorf("-cases: %q is not in suite %q", n, suiteName))
			}
		}
		cases = kept
	}
	// The fmpar suite measures the parallel-FM pipeline width vs width; the
	// full deterministic set (flat refiners at 1M nodes, run twice) would
	// multiply its runtime for nothing the report gates on.
	fmparMode := cfg.suite == "fmpar" && cfg.inPath == ""
	names := bench.DefaultJSONAlgos()
	if fmparMode {
		names = []string{"multilevel-fm"}
	}
	if cfg.algoCSV != "" {
		names = nil
		for _, n := range strings.Split(cfg.algoCSV, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	for _, n := range names {
		if _, err := algo.Get(n); err != nil {
			fail(err)
		}
	}
	objectives := []partition.Objective{partition.TotalCut}
	if cfg.objCSV != "" {
		objectives = nil
		for _, s := range strings.Split(cfg.objCSV, ",") {
			o, err := partition.ParseObjective(strings.TrimSpace(s))
			if err != nil {
				fail(err)
			}
			objectives = append(objectives, o)
		}
	}
	opt := algo.Options{Seed: gen.SuiteSeed, EvalWorkers: cfg.evalW, Workers: cfg.workers, LanczosIter: cfg.lanczos}
	// Profiles cover only the measured algo.Run loops, not suite generation:
	// graph construction would otherwise dominate the CPU profile at the 1M+
	// tier and hide the V-cycle phases the profile exists to expose.
	if cfg.cpuProf != "" {
		f, err := os.Create(cfg.cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}
	if cfg.memProf != "" {
		defer func() {
			f, err := os.Create(cfg.memProf)
			if err != nil {
				fail(err)
			}
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}
	start := time.Now()
	// One report covers every requested objective: RunJSON tags each result
	// row, and the comparison gates key on (case, algo, objective).
	var rep *bench.Report
	for _, o := range objectives {
		oOpt := opt
		oOpt.Objective = o
		var r *bench.Report
		if fmparMode {
			// Width-labeled rows ("algo@w1" vs "algo@w4"): each width is its
			// own series under the (case, algo, objective) comparison keys,
			// so one artifact archives both the quality identity and the
			// per-width timing/phase breakdown.
			r = bench.RunJSONWidths(suiteName, cases, names, oOpt, cfg.repeat, []int{1, 4})
		} else {
			r = bench.RunJSON(suiteName, cases, names, oOpt, cfg.repeat)
		}
		if rep == nil {
			rep = r
		} else {
			rep.Results = append(rep.Results, r.Results...)
		}
	}
	if fmparMode {
		// In-run determinism gate: every width of one (case, algo, objective)
		// must report identical quality — the Workers bit-identity contract,
		// checked before the artifact is written or compared.
		checkWidthIdentity(rep)
	}
	for _, r := range rep.Results {
		obj := r.Objective
		if obj == "" {
			obj = "cut"
		}
		if r.Error != "" {
			fmt.Printf("%-16s %-15s %-8s skipped: %s\n", r.Case, r.Algo, obj, r.Error)
			continue
		}
		fmt.Printf("%-16s %-15s %-8s %s %8.0f  balance %.3f  %12s\n",
			r.Case, r.Algo, obj, r.MetricName(), r.Metric(), r.Balance, time.Duration(r.NsPerOp))
	}
	fmt.Printf("benchmark suite %q: %d results in %s\n",
		suiteName, len(rep.Results), time.Since(start).Round(time.Millisecond))

	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Println("wrote", cfg.jsonPath)
	}

	if cfg.baseline != "" {
		f, err := os.Open(cfg.baseline)
		if err != nil {
			fail(err)
		}
		base, err := bench.ReadJSON(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if cfg.exact {
			if diffs := bench.CompareExact(base, rep); len(diffs) > 0 {
				fmt.Fprintf(os.Stderr, "experiments: %d cut difference(s) vs %s:\n", len(diffs), cfg.baseline)
				for _, d := range diffs {
					fmt.Fprintln(os.Stderr, "  ", d)
				}
				os.Exit(1)
			}
			fmt.Printf("cuts identical to %s\n", cfg.baseline)
			return
		}
		regs := bench.Compare(base, rep, cfg.tol)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d cut regression(s) beyond %.0f%% vs %s:\n",
				len(regs), 100*cfg.tol, cfg.baseline)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  ", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no cut regressions beyond %.0f%% vs %s\n", 100*cfg.tol, cfg.baseline)
	}
}

// checkWidthIdentity fails the run if two "@wN"-labeled rows of the same
// (case, algo, objective) disagree on the optimized metric: worker width
// leaked into a result, which no tolerance excuses.
func checkWidthIdentity(rep *bench.Report) {
	first := map[string]bench.Result{}
	for _, r := range rep.Results {
		if r.Error != "" {
			continue
		}
		base := r.Algo
		if i := strings.LastIndex(base, "@w"); i >= 0 {
			base = base[:i]
		}
		k := r.Case + "\x00" + base + "\x00" + r.Objective
		prev, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		if r.Metric() != prev.Metric() {
			fail(fmt.Errorf("width determinism violated on %s/%s: %s %v (%s) != %v (%s)",
				r.Case, base, r.MetricName(), r.Metric(), r.Algo, prev.Metric(), prev.Algo))
		}
	}
	fmt.Println("cross-width quality identical for every (case, algo, objective)")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func emitFigure(out io.Writer, id string, opt bench.Options) {
	start := time.Now()
	switch id {
	case "1":
		fmt.Fprintln(out, bench.Figure1())
	case "conv":
		fmt.Fprintln(out, bench.Convergence(opt).Format())
	case "speedup":
		fmt.Fprintln(out, bench.Speedup(opt).Format())
	case "sweep":
		fmt.Fprintln(out, bench.ParamSweep(opt).Format())
	case "incr":
		fmt.Fprintln(out, bench.IncrementalConvergence(opt).Format())
	default:
		fmt.Fprintln(os.Stderr, "experiments: no such figure", id)
		os.Exit(1)
	}
	fmt.Fprintf(out, "[figure %s regenerated in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
}
