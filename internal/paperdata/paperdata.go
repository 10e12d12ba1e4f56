// Package paperdata records the numbers published in the paper's Tables 1–6
// verbatim, so the experiment harness can print measured-vs-paper
// comparisons mechanically (cmd/experiments -compare).
//
// Values are transcribed from the SC'94 paper (revised September 1996
// SURFACE copy). A value of -1 marks a cell the paper leaves blank (its
// Table 6 has no RSB row for the "78 plus 20 nodes" case).
package paperdata

// Cell addresses one number in a paper table: a graph label, a method row,
// and a part count.
type Cell struct {
	Group  string // e.g. "167 Nodes", "118 plus 21 Nodes"
	Method string // "DKNUX" or "RSB"
	Parts  int
}

// TableData holds one paper table: metric description and the values.
type TableData struct {
	ID     string
	Metric string
	Parts  []int
	// Values[group][method] is indexed parallel to Parts.
	Values map[string]map[string][]float64
}

// Tables maps table number (1–6) to its published data.
var Tables = map[int]TableData{
	1: {
		ID: "Table 1", Metric: "total inter-part edges", Parts: []int{2, 4, 8},
		Values: map[string]map[string][]float64{
			"167 Nodes": {"DKNUX": {20, 63, 109}, "RSB": {20, 59, 120}},
			"144 Nodes": {"DKNUX": {33, 65, 120}, "RSB": {36, 78, 119}},
		},
	},
	2: {
		ID: "Table 2", Metric: "total inter-part edges", Parts: []int{2, 4, 8},
		Values: map[string]map[string][]float64{
			"139 Nodes": {"DKNUX": {28, 65, 100}, "RSB": {30, 69, 113}},
			"213 Nodes": {"DKNUX": {41, 77, 138}, "RSB": {41, 82, 151}},
			"243 Nodes": {"DKNUX": {43, 88, 141}, "RSB": {47, 95, 154}},
			"279 Nodes": {"DKNUX": {36, 78, 139}, "RSB": {37, 88, 155}},
		},
	},
	3: {
		ID: "Table 3", Metric: "total inter-part edges", Parts: []int{2, 4, 8},
		Values: map[string]map[string][]float64{
			"118 plus 21 Nodes": {"DKNUX": {31, 61, 103}, "RSB": {30, 69, 113}},
			"118 plus 41 Nodes": {"DKNUX": {31, 66, 120}, "RSB": {33, 75, 128}},
			"183 plus 30 Nodes": {"DKNUX": {37, 72, 133}, "RSB": {41, 82, 151}},
			"183 plus 60 Nodes": {"DKNUX": {44, 83, 160}, "RSB": {47, 95, 154}},
		},
	},
	4: {
		ID: "Table 4", Metric: "worst cut max_q C(q)", Parts: []int{4, 8},
		Values: map[string]map[string][]float64{
			"78 Nodes":  {"DKNUX": {23, 23}, "RSB": {26, 25}},
			"88 Nodes":  {"DKNUX": {28, 21}, "RSB": {33, 27}},
			"98 Nodes":  {"DKNUX": {26, 23}, "RSB": {30, 30}},
			"144 Nodes": {"DKNUX": {53, 42}, "RSB": {44, 35}},
			"167 Nodes": {"DKNUX": {44, 39}, "RSB": {40, 41}},
		},
	},
	5: {
		ID: "Table 5", Metric: "worst cut max_q C(q)", Parts: []int{4, 8},
		Values: map[string]map[string][]float64{
			"78 Nodes":  {"DKNUX": {23, 20}, "RSB": {26, 25}},
			"88 Nodes":  {"DKNUX": {24, 22}, "RSB": {33, 27}},
			"98 Nodes":  {"DKNUX": {24, 22}, "RSB": {30, 30}},
			"213 Nodes": {"DKNUX": {40, 41}, "RSB": {46, 45}},
			"243 Nodes": {"DKNUX": {45, 41}, "RSB": {51, 47}},
			"279 Nodes": {"DKNUX": {42, 42}, "RSB": {46, 47}},
			"309 Nodes": {"DKNUX": {44, 47}, "RSB": {46, 52}},
		},
	},
	6: {
		ID: "Table 6", Metric: "worst cut max_q C(q)", Parts: []int{4, 8},
		Values: map[string]map[string][]float64{
			"78 plus 10 Nodes":  {"DKNUX": {27, 25}, "RSB": {33, 27}},
			"78 plus 20 Nodes":  {"DKNUX": {29, 27}, "RSB": {-1, -1}},
			"118 plus 21 Nodes": {"DKNUX": {33, 29}, "RSB": {38, 34}},
			"118 plus 41 Nodes": {"DKNUX": {34, 35}, "RSB": {40, 39}},
			"183 plus 30 Nodes": {"DKNUX": {41, 40}, "RSB": {46, 45}},
			"183 plus 60 Nodes": {"DKNUX": {46, 45}, "RSB": {51, 47}},
			"249 plus 30 Nodes": {"DKNUX": {42, 44}, "RSB": {51, 47}},
			"249 plus 60 Nodes": {"DKNUX": {46, 56}, "RSB": {46, 52}},
		},
	},
}

// Winner reports which method the paper's table favors for a cell: "DKNUX",
// "RSB", "tie", or "n/a" when the paper has no value.
func Winner(table int, group string, partIdx int) string {
	t, ok := Tables[table]
	if !ok {
		return "n/a"
	}
	g, ok := t.Values[group]
	if !ok {
		return "n/a"
	}
	d, r := g["DKNUX"][partIdx], g["RSB"][partIdx]
	switch {
	case d < 0 || r < 0:
		return "n/a"
	case d < r:
		return "DKNUX"
	case r < d:
		return "RSB"
	default:
		return "tie"
	}
}
