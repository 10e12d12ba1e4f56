package paperdata

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestTablesComplete(t *testing.T) {
	wantGroups := map[int]int{1: 2, 2: 4, 3: 4, 4: 5, 5: 7, 6: 8}
	for num, want := range wantGroups {
		td, ok := Tables[num]
		if !ok {
			t.Fatalf("table %d missing", num)
		}
		if len(td.Values) != want {
			t.Errorf("table %d has %d groups, want %d", num, len(td.Values), want)
		}
		for group, methods := range td.Values {
			for m, vals := range methods {
				if len(vals) != len(td.Parts) {
					t.Errorf("table %d %s %s: %d values for %d parts", num, group, m, len(vals), len(td.Parts))
				}
			}
			if _, ok := methods["DKNUX"]; !ok {
				t.Errorf("table %d %s missing DKNUX", num, group)
			}
			if _, ok := methods["RSB"]; !ok {
				t.Errorf("table %d %s missing RSB", num, group)
			}
		}
	}
}

func TestSpotCheckTranscription(t *testing.T) {
	// Distinctive values straight from the paper text.
	cases := []struct {
		table  int
		group  string
		method string
		idx    int
		want   float64
	}{
		{1, "167 Nodes", "DKNUX", 0, 20},
		{1, "144 Nodes", "RSB", 1, 78},
		{2, "279 Nodes", "RSB", 2, 155},
		{3, "183 plus 60 Nodes", "DKNUX", 2, 160},
		{4, "144 Nodes", "RSB", 0, 44},
		{5, "309 Nodes", "RSB", 1, 52},
		{6, "249 plus 60 Nodes", "DKNUX", 1, 56},
		{6, "78 plus 20 Nodes", "RSB", 0, -1}, // blank in the paper
	}
	for _, c := range cases {
		got := Tables[c.table].Values[c.group][c.method][c.idx]
		if got != c.want {
			t.Errorf("table %d %s %s[%d] = %v, want %v", c.table, c.group, c.method, c.idx, got, c.want)
		}
	}
}

func TestWinner(t *testing.T) {
	if w := Winner(1, "167 Nodes", 0); w != "tie" { // 20 vs 20
		t.Errorf("winner = %q, want tie", w)
	}
	if w := Winner(1, "167 Nodes", 1); w != "RSB" { // 63 vs 59
		t.Errorf("winner = %q, want RSB", w)
	}
	if w := Winner(5, "88 Nodes", 0); w != "DKNUX" { // 24 vs 33
		t.Errorf("winner = %q, want DKNUX", w)
	}
	if w := Winner(6, "78 plus 20 Nodes", 0); w != "n/a" {
		t.Errorf("winner = %q, want n/a", w)
	}
	if w := Winner(9, "x", 0); w != "n/a" {
		t.Errorf("missing table winner = %q", w)
	}
}

func TestDKNUXWinsPaperClaims(t *testing.T) {
	// The paper claims DKNUX is better or comparable in most cases; its own
	// numbers should show DKNUX winning the majority of decided cells in
	// Tables 2, 3, 5, 6.
	for _, table := range []int{2, 3, 5, 6} {
		wins, losses := 0, 0
		for group := range Tables[table].Values {
			for i := range Tables[table].Parts {
				switch Winner(table, group, i) {
				case "DKNUX":
					wins++
				case "RSB":
					losses++
				}
			}
		}
		if wins <= losses {
			t.Errorf("table %d: paper data shows DKNUX %d wins vs %d losses — transcription suspect",
				table, wins, losses)
		}
	}
}

func TestCompareAgainstSelf(t *testing.T) {
	// Feed the paper's own numbers back as "measured": agreement must be 100%.
	td := Tables[5]
	var mt bench.Table
	mt.ID = "Table 5"
	mt.Parts = td.Parts
	for group, methods := range td.Values {
		mt.Groups = append(mt.Groups, bench.Group{
			Label: group,
			Rows: []bench.Row{
				{Label: "Worst Cut Using DKNUX", Values: methods["DKNUX"]},
				{Label: "Worst Cut Using RSB", Values: methods["RSB"]},
			},
		})
	}
	cmp := Compare(5, mt)
	if cmp.ShapeAgreement != 1 {
		t.Errorf("self-comparison agreement = %v, want 1", cmp.ShapeAgreement)
	}
	if len(cmp.Rows) != 14 {
		t.Errorf("rows = %d, want 14", len(cmp.Rows))
	}
	out := cmp.Format()
	if !strings.Contains(out, "shape agreement: 100%") {
		t.Errorf("Format output wrong:\n%s", out)
	}
}

func TestCompareDisagreement(t *testing.T) {
	// Flip one cell so DKNUX loses where the paper has it winning.
	mt := bench.Table{
		ID:    "Table 5",
		Parts: []int{4, 8},
		Groups: []bench.Group{{
			Label: "88 Nodes",
			Rows: []bench.Row{
				{Label: "Worst Cut Using DKNUX", Values: []float64{50, 22}},
				{Label: "Worst Cut Using RSB", Values: []float64{33, 27}},
			},
		}},
	}
	cmp := Compare(5, mt)
	if len(cmp.Rows) != 2 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	if cmp.ShapeAgreement != 0.5 {
		t.Errorf("agreement = %v, want 0.5", cmp.ShapeAgreement)
	}
	if !strings.Contains(cmp.Format(), "NO") {
		t.Error("Format does not flag the disagreement")
	}
}

func TestCompareUnknownTable(t *testing.T) {
	cmp := Compare(42, bench.Table{ID: "Table 42"})
	if len(cmp.Rows) != 0 || cmp.ShapeAgreement != 0 {
		t.Error("unknown table should yield empty comparison")
	}
}
