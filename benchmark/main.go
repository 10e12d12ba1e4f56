// Command benchmark is the repository's end-to-end benchmark. Its four
// workloads each load a different layer: coarsening (rgg-500k), KL/FM
// refinement (powerlaw-10k), the paper's incremental GA (ga-incremental)
// and the partd service (partd-mixed). A run checks every output, prints
// each metric with its unit and sample count, and ends with one JSON line.
// BENCHMARK.json at the repository root declares the workloads and metrics,
// and README.md beside this file explains them.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and the partd daemon from the checkout first:
//
//	bash benchmark/run.sh --workload rgg-500k --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures the same
// inputs again with tracing on, prints the per-layer metrics, and writes the
// spans under --trace-dir. --workload all runs every workload in turn.
// --summarize reads result lines from standard input and prints each
// metric's median and quartiles across them.
//
// Exit status: 0 when every output checked out, 1 when a check failed (the
// result is still printed), 2 when the run could not be made at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string
	scale     string
	partd     string
	dir       string
	summarize bool

	// Set only in the child processes that measure library workloads.
	child     bool
	in        string
	setupOnly bool
}

func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1994, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", "", "directory traced runs write spans to (default <dir>/trace)")
	fs.StringVar(&cfg.scale, "scale", "full", "input sizes: full or smoke")
	fs.StringVar(&cfg.partd, "partd", "", "partd binary for partd-mixed")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for generated inputs and traces")
	fs.BoolVar(&cfg.summarize, "summarize", false, "summarize result lines read from standard input")
	fs.BoolVar(&cfg.child, "child", false, "internal: measure in this process")
	fs.StringVar(&cfg.in, "in", "", "internal: input directory of a child process")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: stop a child process after set-up")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	if _, ok := scales[cfg.scale]; !ok {
		return nil, fmt.Errorf("-scale must be full or smoke, got %q", cfg.scale)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(cfg.dir, "trace")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ok, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run carries out the command and reports whether every check passed.
func run(cfg *config) (bool, error) {
	if cfg.summarize {
		return true, summarize(os.Stdin, os.Stdout)
	}
	if cfg.workload == "" {
		return false, fmt.Errorf("-workload is required")
	}
	var todo []workload
	if cfg.workload == "all" && !cfg.child {
		todo = workloads
	} else {
		wl, err := findWorkload(cfg.workload)
		if err != nil {
			return false, err
		}
		todo = []workload{wl}
	}
	if cfg.child {
		return true, childMain(cfg, todo[0])
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return false, err
	}
	ok := true
	for _, wl := range todo {
		var rep *report
		var err error
		if wl.kind == "partd" {
			rep, err = runPartd(cfg, wl)
		} else {
			rep, err = runLibrary(cfg, wl)
		}
		if err != nil {
			return false, err
		}
		if err := emit(os.Stdout, wl, cfg.seed, cfg.trace, rep); err != nil {
			return false, err
		}
		ok = ok && rep.correct()
	}
	return ok, nil
}

// traceFile is where a traced run of wl writes its spans.
func traceFile(cfg *config, wl workload) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
}

// summarize reads the JSON result lines of several runs and prints, per
// metric, the sample count, median, quartiles, and the spread between the
// quartiles as a share of the median.
func summarize(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	units := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var res jsonResult
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &res) != nil {
			continue
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %4s %14s %14s %14s %8s %s\n", "metric", "n", "median", "q1", "q3", "spread", "unit")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "%-28s %4d %14.6g %14.6g %14.6g %8.4f %s\n", name, len(xs), q2, q1, q3, spread, units[name])
	}
	return nil
}
