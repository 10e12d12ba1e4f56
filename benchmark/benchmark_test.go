package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestCatalogMatchesBenchmarkJSON holds the workload and metric lists here
// and in BENCHMARK.json together.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	want := map[string]string{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		want[m.Name] = m.Unit
	}
	for _, m := range metricDefs {
		if want[m.name] != m.unit {
			t.Errorf("metric %s: unit %q here, %q in BENCHMARK.json", m.name, m.unit, want[m.name])
		}
		delete(want, m.name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json declares %s, which the benchmark never prints", name)
	}
}

// build compiles the benchmark and partd into dir.
func build(t *testing.T, dir string) (bench, partd string) {
	t.Helper()
	bench, partd = filepath.Join(dir, "benchmark"), filepath.Join(dir, "partd")
	for _, args := range [][]string{{"build", "-o", bench, "."}, {"build", "-o", partd, "repro/cmd/partd"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return bench, partd
}

// smokeRun is one benchmark run at toy scale.
type smokeRun struct {
	res      jsonResult
	traceDir string
}

func runSmoke(t *testing.T, bench, partd, dir, workload string, seed int64, trace int) smokeRun {
	t.Helper()
	traceDir := filepath.Join(dir, fmt.Sprintf("trace-%s-%d-%d", workload, seed, trace))
	cmd := exec.Command(bench, "-workload", workload, "-scale", "smoke", "-seconds", "0.3",
		"-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace), "-partd", partd,
		"-dir", dir, "-trace-dir", traceDir)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v\n%s", workload, seed, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %d: correct=%v attempted=%d failed=%d", workload, seed, trace, res.Correct, res.Attempted, res.Failed)
	}
	return smokeRun{res: res, traceDir: traceDir}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// deterministicMetrics do not depend on timing: for one seed they must not
// change from run to run.
var deterministicMetrics = map[string]bool{
	"cut": true, "balance": true, "incremental.moved_frac": true,
	"multilevel.levels": true, "graph.hierarchy_edges": true, "graph.level1_shrink": true,
	"partition.boundary_nodes": true,
}

// TestSmoke runs every workload at toy scale, twice with one seed and once
// with another, traced and untraced, and checks what each run prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	d := readDeclared(t)
	dir := t.TempDir()
	bench, partd := build(t, dir)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			for trace, metrics := range [][]declaredMetric{d.EndToEnd, d.PerLayer} {
				a := runSmoke(t, bench, partd, dir, wl.name, 1, trace)
				b := runSmoke(t, bench, partd, dir, wl.name, 1, trace)
				c := runSmoke(t, bench, partd, dir, wl.name, 2, trace)
				if len(a.res.Metrics) != len(metrics) {
					t.Errorf("trace %d: printed %d metrics, BENCHMARK.json declares %d", trace, len(a.res.Metrics), len(metrics))
				}
				// A workload whose layers here are all timing-driven (partd's
				// service counters) has no deterministic metric to compare.
				seeded, differs := false, false
				for _, m := range metrics {
					got, ok := a.res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %d: %s not printed", trace, m.Name)
					case !nameRE.MatchString(m.Name) || got.Unit == "" || got.Unit != m.Unit:
						t.Errorf("trace %d: %s printed with unit %q, declared %q", trace, m.Name, got.Unit, m.Unit)
					case deterministicMetrics[m.Name] && b.res.Metrics[m.Name].Value != got.Value:
						t.Errorf("%s = %v and %v in two runs with one seed", m.Name, got.Value, b.res.Metrics[m.Name].Value)
					}
					seeded = seeded || deterministicMetrics[m.Name] && got.Value != 0
					differs = differs || deterministicMetrics[m.Name] && c.res.Metrics[m.Name].Value != got.Value
				}
				if seeded && !differs {
					t.Errorf("trace %d: no deterministic metric changed with the seed", trace)
				}
				if trace == 1 {
					checkTrace(t, filepath.Join(a.traceDir, fmt.Sprintf("%s-seed1.json", wl.name)), wl.kind == "vcycle")
				}
			}
		})
	}
}

// checkTrace checks that child spans nest inside their parents, that no
// span's children cover more than it, and, for V-cycle ops, that the
// phases reconcile: coarsen, coarse_solve, project, refine and unattributed
// sum to the op exactly, and unattributed stays under 5% of it.
func checkTrace(t *testing.T, path string, vcycle bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	children := map[int][]span{}
	for _, s := range doc.Spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ops := 0
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.Start < p.Start || s.End > p.End) {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %d", s.ID, s.Name, s.Start, s.End, s.Parent)
		}
		var covered int64
		for _, c := range children[s.ID] {
			covered += c.End - c.Start
		}
		if self := s.End - s.Start - covered; self < 0 {
			t.Errorf("span %d %s has self time %d", s.ID, s.Name, self)
		}
		if s.Name != "op" {
			continue
		}
		ops++
		if !vcycle {
			continue
		}
		phases := map[string]int64{}
		for _, c := range children[s.ID] {
			phases[c.Name] = c.End - c.Start
		}
		var sum int64
		for _, name := range []string{"multilevel.coarsen", "multilevel.coarse_solve", "multilevel.project", "multilevel.refine", "multilevel.unattributed"} {
			v, ok := phases[name]
			if !ok {
				t.Errorf("op span %d has no %s child", s.ID, name)
			}
			sum += v
		}
		if dur := s.End - s.Start; sum != dur {
			t.Errorf("op span %d: phases sum to %d ns, op took %d", s.ID, sum, dur)
		} else if u := phases["multilevel.unattributed"]; math.Abs(float64(u)) > 0.05*float64(dur) {
			t.Errorf("op span %d: unattributed %d ns of %d", s.ID, u, dur)
		}
	}
	if ops == 0 {
		t.Errorf("%s holds no op spans", path)
	}
}
