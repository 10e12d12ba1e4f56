package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/incremental"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// runLibrary measures a workload that calls the library directly. The parent
// generates the inputs; each set-up and the measurement then run in a fresh
// child process, so no heap, pool or arena state carries over from the
// generator or from one set-up to the next.
func runLibrary(cfg *config, wl workload) (*report, error) {
	dir, err := os.MkdirTemp(cfg.dir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := writeInputs(wl, scales[cfg.scale], cfg.seed, dir); err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", wl.name, err)
	}
	if cfg.trace {
		rep, rssMiB, err := runChild(cfg, wl, dir)
		if err != nil {
			return nil, err
		}
		rep.set("process.peak_rss_mb", rssMiB, 0)
		return rep, nil
	}
	total := newReport()
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		rep, _, err := runChild(cfg, wl, dir, "-setup-only")
		if err != nil {
			return nil, err
		}
		total.merge(rep)
		setups = append(setups, rep.Values["setup_s"])
	}
	rep, _, err := runChild(cfg, wl, dir)
	if err != nil {
		return nil, err
	}
	rep.merge(total)
	setups = append(setups, rep.Values["setup_s"])
	rep.setTiming("setup_s", setups, 1)
	return rep, nil
}

// runChild runs one child process over the inputs in dir and returns its
// report and its peak resident set.
func runChild(cfg *config, wl workload, dir string, extra ...string) (*report, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", wl.name, "-in", dir,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", cfg.scale, "-trace", trace, "-trace-dir", cfg.traceDir}
	cmd := exec.Command(self, append(args, extra...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", libWidth))
	cmd.SysProcAttr = diesWithParent()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child process: %w", wl.name, err)
	}
	rep := newReport()
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, 0, fmt.Errorf("%s child process report: %w", wl.name, err)
	}
	var rssMiB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, rssMiB, nil
}

// childMain is the body of a child process: set up, measure, and print the
// report as JSON on standard output.
func childMain(cfg *config, wl workload) error {
	var tr *tracer
	if cfg.trace && !cfg.setupOnly {
		tr = newTracer()
	}
	rep, err := measureLibrary(cfg, wl, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(traceFile(cfg, wl), wl.name, cfg.seed); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// variant is one of the inputs a library workload's ops cycle through: one
// algorithm seed on the workload's graph, or one ga-incremental instance.
// Cycling through several keeps the quality metrics from hanging on one
// seed's luck. A variant's first result is its reference, and since its
// seed is fixed every later op on it must reproduce that assignment.
type variant struct {
	name string
	seed int64
	g    *graph.Graph
	old  *partition.Partition // ga-incremental: the partition being repaired
	run  func(st *multilevel.Stats) (*partition.Partition, error)
	ref  *partition.Partition
	hash uint64
}

// call runs the variant once, times the call, and checks its result.
func (v *variant) call(st *multilevel.Stats) (time.Duration, error) {
	t := time.Now()
	p, err := v.run(st)
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("%s: %w", v.name, err)
	}
	if err := checkPartition(v.g, p); err != nil {
		return d, fmt.Errorf("%s: %w", v.name, err)
	}
	if h := assignHash(p); v.ref == nil {
		v.ref, v.hash = p, h
	} else if h != v.hash {
		return d, fmt.Errorf("%s: assignment differs from the first one with this seed", v.name)
	}
	return d, nil
}

// vcycleSeeds is how many algorithm seeds a V-cycle workload cycles through.
// One 8-way cut of a random geometric graph swings by ~15% with the seed.
const vcycleSeeds = 16

// loadVariants parses a library workload's input files and returns its
// variants, the time the parse took, and the bytes parsed.
func loadVariants(cfg *config, wl workload) ([]*variant, time.Duration, int64, error) {
	w := libWidth
	if wl.kind == "vcycle" {
		g, parse, size, err := parseGraph(filepath.Join(cfg.in, graphFile))
		if err != nil {
			return nil, 0, 0, err
		}
		vs := make([]*variant, vcycleSeeds)
		for k := range vs {
			opts := algo.Options{Parts: parts, Seed: cfg.seed*1000 + int64(k), Workers: w, EvalWorkers: w}
			vs[k] = &variant{name: fmt.Sprintf("%s seed %d", algoName, opts.Seed), seed: opts.Seed, g: g,
				run: func(st *multilevel.Stats) (*partition.Partition, error) {
					o := opts
					o.MultilevelStats = st
					return algo.Run(g, algoName, o)
				}}
		}
		return vs, parse, size, nil
	}
	sc := scales[cfg.scale]
	var vs []*variant
	var parse time.Duration
	var size int64
	for i := 0; i < sc.gaInstances; i++ {
		g, d, n, err := parseGraph(filepath.Join(cfg.in, grownFile(i)))
		if err != nil {
			return nil, 0, 0, err
		}
		old, err := readPartition(filepath.Join(cfg.in, oldFile(i)))
		if err != nil {
			return nil, 0, 0, err
		}
		parse += d
		size += n
		// The run seed drives the GA; the meshes are fixed (see writeInputs).
		ic := incremental.Config{
			Options: algo.Options{
				Parts: parts, Seed: cfg.seed*1000 + int64(i),
				Generations: sc.gaGens, PopSize: gaPop, Islands: gaIslands,
				Workers: w, EvalWorkers: w,
			},
			HillClimb: true,
		}
		vs = append(vs, &variant{name: fmt.Sprintf("incremental GA seed %d on instance %d", ic.Options.Seed, i),
			seed: ic.Options.Seed, g: g, old: old,
			run: func(*multilevel.Stats) (*partition.Partition, error) {
				return incremental.Repartition(g, old, ic)
			}})
	}
	return vs, parse, size, nil
}

// measureWindows splits the run: the whole run untraced, or, when tracing,
// an untraced half (the overhead baseline) and a traced half.
func measureWindows(cfg *config) (untraced, traced time.Duration) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return d / 2, d / 2
	}
	return d, 0
}

// measureOps runs op until window has passed and at least minOps ran, checks
// each result, and returns each op's wall time in seconds and the heap the
// ops allocated per op in MiB (a runtime.MemStats TotalAlloc delta).
func measureOps(window time.Duration, minOps int, rep *report, op func(i int) (time.Duration, error)) ([]float64, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var walls []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < window; i++ {
		d, err := op(i)
		rep.check(err)
		walls = append(walls, d.Seconds())
	}
	runtime.ReadMemStats(&after)
	return walls, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(walls)) / (1 << 20)
}

// measureLibrary measures a library workload in this process. Set-up is the
// parse plus one warm-up op, which fills the V-cycle's pooled arenas and the
// GA's worker pools; the measured ops then cycle through the variants.
func measureLibrary(cfg *config, wl workload, tr *tracer) (*report, error) {
	rep := newReport()
	start := time.Now()
	vs, parse, size, err := loadVariants(cfg, wl)
	if err != nil {
		return nil, err
	}
	parsed := time.Now()
	_, err = vs[0].call(nil)
	end := time.Now()
	rep.set("setup_s", end.Sub(start).Seconds(), 1)
	rep.check(err)
	if rep.Failed > 0 || cfg.setupOnly {
		return rep, nil
	}
	setupID := tr.add(0, 0, "setup", start, end)
	tr.add(setupID, 0, "gio.parse", start, parsed)
	tr.add(setupID, 0, "warmup", parsed, end)

	// Every variant runs at least once, so the quality metrics cover all.
	minOps := len(vs)
	untraced, traced := measureWindows(cfg)
	walls, allocMiB := measureOps(untraced, minOps, rep, func(i int) (time.Duration, error) {
		return vs[i%len(vs)].call(nil)
	})
	mean := func(f func(v *variant) float64) float64 {
		var s float64
		for _, v := range vs {
			s += f(v)
		}
		return s / float64(len(vs))
	}
	if tr == nil {
		rep.setTiming("op_ms_p50", walls, 1e3)
		rep.set("ops_per_s", float64(len(walls))/sum(walls), len(walls))
		rep.set("cut", mean(func(v *variant) float64 { return v.ref.CutSize(v.g) }), 0)
		rep.set("balance", mean(func(v *variant) float64 { return balance(v.g, v.ref) }), 0)
		return rep, nil
	}

	// Traced half. On the V-cycle workloads it turns the multilevel.Stats
	// sink on, whose ReadMemStats calls stop the world; this is why
	// end-to-end numbers never come from a traced run.
	samples := map[string][]float64{}
	tracedWalls, _ := measureOps(traced, minOps, rep, func(i int) (time.Duration, error) {
		var st *multilevel.Stats
		if wl.kind == "vcycle" {
			st = new(multilevel.Stats)
		}
		t0 := time.Now()
		d, err := vs[i%len(vs)].call(st)
		opID := tr.add(0, i+1, "op", t0, t0.Add(d))
		if st != nil {
			recordPhases(tr, opID, i+1, d, st, samples)
		}
		return d, err
	})
	for name, xs := range samples {
		rep.setTiming(name, xs, 1)
	}
	rep.set("runtime.alloc_mb_per_op", allocMiB, len(walls))
	rep.set("trace.overhead_frac", median(tracedWalls)/median(walls)-1, len(tracedWalls))
	rep.set("gio.parse_s", parse.Seconds(), 1)
	rep.set("gio.parse_mb_per_s", float64(size)/(1<<20)/parse.Seconds(), 1)
	rep.set("partition.boundary_nodes", mean(func(v *variant) float64 { return float64(len(v.ref.BoundaryNodes(v.g))) }), 0)
	if wl.kind == "vcycle" {
		hierarchyMetrics(vs[0].g, vs[0].seed, rep, tr)
	} else {
		sc := scales[cfg.scale]
		offspringPerOp := sc.gaGens * gaIslands * (gaPop/gaIslands - gaElites)
		rep.set("ga.offspring_per_s", float64(offspringPerOp*len(tracedWalls))/sum(tracedWalls), len(tracedWalls))
		rep.set("incremental.moved_frac", mean(func(v *variant) float64 {
			return float64(incremental.MovedNodes(v.old, v.ref)) / float64(len(v.old.Assign))
		}), 0)
	}
	unitCosts(vs[0].g, vs[0].ref, vs[0].seed, rep, tr)
	return rep, nil
}

// recordPhases adds one traced V-cycle op's phase breakdown to samples and
// lays its phases out as spans under the op's span. Unattributed time is
// the op's wall time that no phase claims; refine_other is the refine time
// no refiner claims. Both are reported even when near zero.
func recordPhases(tr *tracer, opID, trace int, wall time.Duration, st *multilevel.Stats, samples map[string][]float64) {
	unattributed := wall - st.Coarsen - st.CoarseSolve - st.Project - st.Refine
	refineOther := st.Refine - st.RefineLP - st.RefineClimb - st.RefineFM
	for name, v := range map[string]float64{
		"multilevel.coarsen_s": st.Coarsen.Seconds(), "multilevel.coarse_solve_s": st.CoarseSolve.Seconds(),
		"multilevel.project_s": st.Project.Seconds(), "multilevel.refine_s": st.Refine.Seconds(),
		"multilevel.unattributed_s": unattributed.Seconds(), "multilevel.refine_other_s": refineOther.Seconds(),
		"lp.refine_s": st.RefineLP.Seconds(), "kl.climb_s": st.RefineClimb.Seconds(), "fm.refine_s": st.RefineFM.Seconds(),
		"multilevel.coarsen_mb": float64(st.CoarsenBytes) / (1 << 20), "multilevel.refine_mb": float64(st.RefineBytes) / (1 << 20),
	} {
		samples[name] = append(samples[name], v)
	}
	ids := tr.layout(opID, trace, tr.span(opID).Start, []phase{
		{"multilevel.coarsen", st.Coarsen}, {"multilevel.coarse_solve", st.CoarseSolve},
		{"multilevel.project", st.Project}, {"multilevel.refine", st.Refine},
		{"multilevel.unattributed", unattributed},
	})
	tr.layout(ids[3], trace, tr.span(ids[3]).Start, []phase{
		{"lp.refine", st.RefineLP}, {"kl.climb", st.RefineClimb},
		{"fm.refine", st.RefineFM}, {"multilevel.refine_other", refineOther},
	})
}

// checkPartition returns why p is not an acceptable answer for g, or nil: a
// valid assignment into exactly parts parts, balanced within the registry's
// tolerance.
func checkPartition(g *graph.Graph, p *partition.Partition) error {
	if err := p.Validate(g); err != nil {
		return err
	}
	if p.Parts != parts {
		return fmt.Errorf("partition has %d parts, want %d", p.Parts, parts)
	}
	if b := balance(g, p); b > 1+algo.BalanceTolerance {
		return fmt.Errorf("partition balance %.4f exceeds 1+%.2f", b, algo.BalanceTolerance)
	}
	return nil
}

// balance is the heaviest part's weight over the ideal W/parts.
func balance(g *graph.Graph, p *partition.Partition) float64 {
	var maxW float64
	for _, w := range p.PartWeights(g) {
		maxW = max(maxW, w)
	}
	return maxW / (g.TotalNodeWeight() / float64(p.Parts))
}

// assignHash fingerprints an assignment vector. It hashes through a small
// fixed buffer so that checking an op adds no allocation to the op's count.
func assignHash(p *partition.Partition) uint64 {
	h := fnv.New64a()
	var buf [4096]byte
	for i := 0; i < len(p.Assign); {
		n := 0
		for ; n < len(buf) && i < len(p.Assign); i++ {
			buf[n], buf[n+1] = byte(p.Assign[i]), byte(p.Assign[i]>>8)
			n += 2
		}
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// parseGraph reads a METIS file and returns the graph, the parse time and
// the file size.
func parseGraph(path string) (*graph.Graph, time.Duration, int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	g, err := gio.ReadGraphFile(path, gio.FormatMETIS)
	return g, time.Since(t), fi.Size(), err
}

func readPartition(path string) (*partition.Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := gio.ReadPartition(f, parts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// diesWithParent makes a child process get SIGKILL if the benchmark dies
// first, so no child outlives a crashed or killed run. (Linux only, like
// the Maxrss units above.)
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
