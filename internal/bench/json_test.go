package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
)

func TestRunJSONSmokeAndRoundTrip(t *testing.T) {
	cases := []Case{{Name: "mesh-120-p4", Graph: gen.Mesh(120, 1), Parts: 4}}
	rep := RunJSON("unit", cases, []string{"grow", "kl", "multilevel-kl"}, algo.Options{Seed: 7}, 1)
	if len(rep.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("%s/%s unexpectedly failed: %s", r.Case, r.Algo, r.Error)
		}
		if r.Cut <= 0 || r.Balance < 1 || r.NsPerOp <= 0 || r.Nodes != 120 {
			t.Errorf("%s/%s has implausible fields: %+v", r.Case, r.Algo, r)
		}
	}
	// The multilevel row carries the V-cycle's refine breakdown, bounded by
	// its total; the flat rows leave it zero.
	if ml := rep.Results[2]; ml.RefineFMNS <= 0 || ml.RefineLPNS+ml.RefineClimbNS+ml.RefineFMNS > ml.RefineNS {
		t.Errorf("multilevel-kl refine breakdown: total %d, lp %d, climb %d, fm %d",
			ml.RefineNS, ml.RefineLPNS, ml.RefineClimbNS, ml.RefineFMNS)
	}
	if ml := rep.Results[2]; ml.CoarsenNS <= 0 || ml.Levels <= 0 || ml.HierarchyEdges <= ml.Edges {
		t.Errorf("multilevel-kl V-cycle fields: coarsen %d ns, %d levels, %d hierarchy edges over a %d-edge input",
			ml.CoarsenNS, ml.Levels, ml.HierarchyEdges, ml.Edges)
	}
	if kl := rep.Results[1]; kl.RefineNS != 0 || kl.CoarsenNS != 0 || kl.HierarchyEdges != 0 {
		t.Errorf("flat kl row carries V-cycle fields: refine_ns %d, coarsen_ns %d, hierarchy_edges %d", kl.RefineNS, kl.CoarsenNS, kl.HierarchyEdges)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Suite != "unit" || len(back.Results) != 3 || back.Results[1].Cut != rep.Results[1].Cut {
		t.Errorf("round trip mangled the report: %+v", back)
	}
}

func TestRunJSONRecordsConstraintErrors(t *testing.T) {
	// rsb cannot split into 3 parts; the suite must record the rejection and
	// keep going rather than abort.
	rep := RunJSON("unit", []Case{{Name: "mesh-50-p3", Graph: gen.Mesh(50, 2), Parts: 3}},
		[]string{"rsb", "kl"}, algo.Options{Seed: 1}, 1)
	if rep.Results[0].Error == "" {
		t.Error("rsb with 3 parts should have been recorded as an error")
	}
	if !strings.Contains(rep.Results[0].Error, "power-of-two") {
		t.Errorf("unexpected error text: %s", rep.Results[0].Error)
	}
	if rep.Results[1].Error != "" || rep.Results[1].Cut == 0 {
		t.Errorf("kl should have succeeded: %+v", rep.Results[1])
	}
}

// A graph whose node weights sum to 0 has no ideal part weight to measure
// balance against: its rows must report balance 0, not NaN, so the report
// still encodes.
func TestRunJSONZeroWeightGraphEncodes(t *testing.T) {
	g, err := gio.ReadMETIS(strings.NewReader("% zero-weight path\n4 3 10\n0 2\n0 1 3\n0 2 4\n0 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep := RunJSON("unit", []Case{{Name: "zero-p2", Graph: g, Parts: 2}}, []string{"grow", "kl"}, algo.Options{Seed: 1}, 1)
	for _, r := range rep.Results {
		if r.Error != "" || r.Balance != 0 {
			t.Errorf("%s: error %q, balance %v; want no error and balance 0", r.Algo, r.Error, r.Balance)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report does not encode: %v", err)
	}
}

func TestReadJSONRejectsWrongSchema(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"schema":"something-else/v9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func report(results ...Result) *Report {
	return &Report{Schema: SchemaVersion, Results: results}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := report(
		Result{Case: "a", Algo: "kl", Cut: 100},
		Result{Case: "a", Algo: "fm", Cut: 90},
		Result{Case: "b", Algo: "kl", Cut: 50},
	)
	cur := report(
		Result{Case: "a", Algo: "kl", Cut: 112}, // +12%: pair regression
		Result{Case: "a", Algo: "fm", Cut: 102}, // +13% and new best of case: two findings
		Result{Case: "b", Algo: "kl", Cut: 49},  // improvement
	)
	regs := Compare(base, cur, 0.10)
	if len(regs) != 3 {
		t.Fatalf("want 3 regressions (2 pairs + best-of-case), got %d: %v", len(regs), regs)
	}
	if regs[0].Algo != "best" || regs[0].Case != "a" || regs[0].BaselineCut != 90 || regs[0].Cut != 102 {
		t.Errorf("want best-of-case regression 90 -> 102 for a, got %+v", regs[0])
	}
	if regs[1].Algo != "fm" || regs[2].Algo != "kl" {
		t.Errorf("want a/fm and a/kl pair regressions, got %+v", regs[1:])
	}
}

func TestCompareBestOfCaseSurvivesAlgorithmSwap(t *testing.T) {
	// A new algorithm takes over the best cut: no regression even though a
	// pair got worse, as long as the case's best cut held.
	base := report(
		Result{Case: "a", Algo: "kl", Cut: 100},
	)
	cur := report(
		Result{Case: "a", Algo: "kl", Cut: 120},
		Result{Case: "a", Algo: "multilevel-kl", Cut: 80},
	)
	regs := Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Algo != "kl" {
		t.Fatalf("want only the kl pair regression, got %v", regs)
	}
}

func TestCompareNarrowedRunIgnoresUnranBaselineBest(t *testing.T) {
	// The baseline's best cut for a case came from an algorithm the current
	// (narrowed, e.g. -algos kl) run never executed: the run must only be
	// held to the cuts of what it actually measured.
	base := report(
		Result{Case: "a", Algo: "kl", Cut: 132},
		Result{Case: "a", Algo: "multilevel-rsb", Cut: 95},
	)
	cur := report(
		Result{Case: "a", Algo: "kl", Cut: 132},
	)
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Errorf("narrowed run flagged spurious regressions: %v", regs)
	}
}

func TestCompareIgnoresMissingPairsAndErrors(t *testing.T) {
	base := report(
		Result{Case: "a", Algo: "kl", Cut: 100},
		Result{Case: "a", Algo: "rsb", Error: "skipped"},
	)
	cur := report(
		Result{Case: "a", Algo: "kl", Cut: 100},
		Result{Case: "a", Algo: "rsb", Cut: 9999, Error: "skipped"},
		Result{Case: "new-case", Algo: "kl", Cut: 12345},
	)
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Errorf("want no regressions, got %v", regs)
	}
}

func TestCompareFlagsNewFailures(t *testing.T) {
	// An algorithm that produced a cut in the baseline but errors now must
	// fail the gate, even though no cut is comparable.
	base := report(
		Result{Case: "a", Algo: "multilevel-kl", Cut: 978},
		Result{Case: "a", Algo: "rsb", Error: "skipped"}, // errored in both: fine
	)
	cur := report(
		Result{Case: "a", Algo: "multilevel-kl", Error: "boom"},
		Result{Case: "a", Algo: "rsb", Error: "skipped"},
	)
	regs := Compare(base, cur, 0.10)
	if len(regs) != 1 || regs[0].Failed != "boom" || regs[0].BaselineCut != 978 {
		t.Fatalf("want one hard-failure regression, got %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "FAILED") {
		t.Errorf("failure regression should render as FAILED: %s", s)
	}
}

func TestCompareZeroCutBaseline(t *testing.T) {
	base := report(Result{Case: "a", Algo: "kl", Cut: 0})
	cur := report(Result{Case: "a", Algo: "kl", Cut: 3})
	if regs := Compare(base, cur, 0.10); len(regs) == 0 {
		t.Error("nonzero cut against zero baseline must regress")
	}
}

// CompareExact pins every quality field, not just the objective's metric:
// a change to any one of them, on a cut or a maxcut row, is one diff that
// names the field, and so is a row that fails on one side only.
func TestCompareExactChecksEveryQualityField(t *testing.T) {
	row := Result{Case: "a", Algo: "dknux", Cut: 10, MaxPartCut: 6, CommVolume: 14, ImbalanceSq: 0.5, Balance: 1.02}
	for _, obj := range []string{"", "maxcut"} {
		row.Objective = obj
		base := report(row)
		for field, set := range map[string]func(*Result){
			"cut":          func(r *Result) { r.Cut-- },
			"max_part_cut": func(r *Result) { r.MaxPartCut++ },
			"comm_volume":  func(r *Result) { r.CommVolume = 0 },
			"imbalance_sq": func(r *Result) { r.ImbalanceSq += 1e-12 },
			"balance":      func(r *Result) { r.Balance = 1 },
			"FAILED":       func(r *Result) { r.Error = "boom" },
		} {
			cur := row
			set(&cur)
			diffs := CompareExact(base, report(cur))
			if len(diffs) != 1 || !strings.Contains(diffs[0], field) {
				t.Errorf("objective %q, %s changed: diffs %q", obj, field, diffs)
			}
			// Timing fields are never compared.
			cur = row
			cur.WallNS, cur.NsPerOp, cur.BytesAlloc = 5, 5, 5
			if diffs := CompareExact(base, report(cur)); len(diffs) != 0 {
				t.Errorf("objective %q: timing fields compared: %q", obj, diffs)
			}
		}
	}
}

// Where the baseline row carries the V-cycle's deterministic counters, each
// must match exactly: a counter that moves is one diff naming it, even with
// every quality field equal.
func TestCompareExactChecksCounters(t *testing.T) {
	row := Result{Case: "a", Algo: "multilevel-fm", Cut: 10, Balance: 1,
		Levels: 15, HierarchyEdges: 3187049, FMMoves: 60374, FMKept: 59000, FMPasses: 40}
	base := report(row)
	for field, set := range map[string]func(*Result){
		"levels":          func(r *Result) { r.Levels-- },
		"hierarchy_edges": func(r *Result) { r.HierarchyEdges++ },
		"fm_moves":        func(r *Result) { r.FMMoves++ },
		"fm_kept":         func(r *Result) { r.FMKept-- },
		"fm_passes":       func(r *Result) { r.FMPasses = 0 },
	} {
		cur := row
		set(&cur)
		diffs := CompareExact(base, report(cur))
		if len(diffs) != 1 || !strings.Contains(diffs[0], field) {
			t.Errorf("%s changed: diffs %q", field, diffs)
		}
	}
}

// A baseline row without counters (an older row, or a non-multilevel
// algorithm) compares its quality fields only, whatever counters the
// current row carries.
func TestCompareExactSkipsCountersAbsentFromBaseline(t *testing.T) {
	row := Result{Case: "a", Algo: "multilevel-kl", Cut: 10, Balance: 1}
	cur := row
	cur.Levels, cur.HierarchyEdges, cur.FMMoves, cur.FMKept, cur.FMPasses = 15, 3187049, 60374, 59000, 40
	if diffs := CompareExact(report(row), report(cur)); len(diffs) != 0 {
		t.Errorf("counters absent from the baseline were compared: %q", diffs)
	}
	cur.Cut++
	if diffs := CompareExact(report(row), report(cur)); len(diffs) != 1 || !strings.Contains(diffs[0], "cut") {
		t.Errorf("cut changed on a row without counters: diffs %q", diffs)
	}
}
