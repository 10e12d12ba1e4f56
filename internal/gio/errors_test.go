package gio

import (
	"strings"
	"testing"
)

// Every malformed METIS input must produce an error, not a bad graph and not
// a panic. Grouped by failure family so a regression names the broken check.
func TestMETISRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		// Header problems.
		"empty":            "",
		"bad header":       "x y\n",
		"negative counts":  "-1 0\n",
		"five fields":      "2 1 11 1 9\n2\n1\n",
		"vertex sizes fmt": "2 1 100\n2\n1\n",
		"bad fmt":          "2 1 99\n2\n1\n",
		"multi constraint": "2 1 10 2\n1 2\n1 1\n",

		// Truncation: fewer vertex lines than the header claims.
		"truncated":            "3 2\n2\n1\n",
		"truncated first line": "3 2\n",

		// Edge-count inconsistency between header and vertex lines.
		"edge count high": "2 5\n2\n1\n",
		"edge count low":  "3 1\n2 3\n1 3\n1 2\n",

		// Structural violations.
		"asymmetric":         "2 1\n2\n\n",
		"asymmetric hi-lo":   "4 1\n\n\n1\n2\n", // only higher-indexed endpoints list the edge
		"self loop":          "2 1\n1\n1\n",     // vertex 1 listing itself
		"duplicate neighbor": "2 2\n2 2\n1 1\n",

		// 1-indexing violations: 0 and out-of-range neighbors.
		"neighbor zero":  "2 1\n0\n1\n",
		"neighbor range": "2 1\n9\n1\n",

		// Weight problems.
		"missing ew":           "2 1 1\n2\n1 1\n",
		"asymmetric weight":    "2 1 1\n2 5\n1 6\n",
		"zero edge weight":     "2 1 1\n2 0\n1 0\n",
		"negative edge weight": "2 1 1\n2 -3\n1 -3\n",
		"nan edge weight":      "2 1 1\n2 NaN\n1 NaN\n",
		"missing vw":           "2 1 10\n\n1\n",
		"negative vw":          "2 1 10\n-2 2\n1 1\n",
		"bad vw":               "2 1 10\nx 2\n1 1\n",
	}
	// Huge-but-integral weights read fine (interop leniency) but must be
	// refused on write, not emitted as overflowed garbage.
	g, err := ReadMETIS(strings.NewReader("2 1 1\n2 1e300\n1 1e300\n"))
	if err != nil {
		t.Fatalf("lenient read of huge weight failed: %v", err)
	}
	var sink strings.Builder
	if err := WriteMETIS(&sink, g); err == nil {
		t.Errorf("WriteMETIS accepted a 1e300 weight: %q", sink.String())
	}
	for name, in := range cases {
		if g, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted (graph: %d nodes %d edges)", name, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestEdgeListRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"comments only":      "# nothing\n% here\n",
		"one endpoint":       "0\n",
		"bad endpoint":       "0 x\n",
		"negative endpoint":  "0 -1\n",
		"self loop":          "3 3\n",
		"duplicate":          "0 1\n0 1\n",
		"duplicate reversed": "0 1\n1 0\n",
		"zero weight":        "0 1 0\n",
		"negative weight":    "0 1 -2\n",
		"nan weight":         "0 1 NaN\n",
		"trailing fields":    "0 1 2 3\n",
		"id above bound":     "0 16777216\n",
		"sparse ids":         "0 16777215\n", // one edge must not allocate 2^24 nodes
	}
	for name, in := range cases {
		if g, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted (graph: %d nodes %d edges)", name, g.NumNodes(), g.NumEdges())
		}
	}
}

// Every malformed text input must produce an error, not a bad graph and not
// a panic. Each case breaks exactly one rule of the format.
func TestReadTextRejectsMalformed(t *testing.T) {
	const two = "graph 2 1\nnode 0 1\nnode 1 1\n"
	cases := map[string]string{
		// Header problems.
		"empty":              "",
		"comments only":      "# nothing\n",
		"no header":          "node 0 1\n",
		"edge before header": "edge 0 1 1\ngraph 2 1\nnode 0 1\nnode 1 1\n",
		"dup header":         "graph 1 0\ngraph 1 0\nnode 0 1\n",
		"short header":       "graph 1\nnode 0 1\n",
		"extra header field": "graph 3 1 foo\n",
		"coords and more":    "graph 1 0 coords x\nnode 0 1 0 0\n",
		"negative count":     "graph -1 0\n",
		"node count bound":   "graph 268435457 0\n",
		"edge count bound":   "graph 2 1073741825\n",
		"unknown":            "graph 1 0\nnode 0 1\nfrobnicate\n",

		// Node lines.
		"missing node lines": "graph 3 0\n",
		"out of order ids":   "graph 2 0\nnode 1 1\nnode 0 1\n",
		"repeated id":        "graph 2 0\nnode 0 1\nnode 0 1\n",
		"node past n":        "graph 1 0\nnode 0 1\nnode 1 1\n",
		"bad weight":         "graph 1 0\nnode 0 abc\n",
		"nan node weight":    "graph 1 0\nnode 0 NaN\n",
		"inf node weight":    "graph 1 0\nnode 0 +Inf\n",
		"negative node wt":   "graph 1 0\nnode 0 -1\n",
		"missing coords":     "graph 1 0 coords\nnode 0 1\n",
		"unwanted coords":    "graph 1 0\nnode 0 1 2 3\n",
		"nan coordinate":     "graph 1 0 coords\nnode 0 1 NaN 0\n",
		"inf coordinate":     "graph 1 0 coords\nnode 0 1 0 -Inf\n",

		// Edge lines.
		"bad edge range":    two + "edge 0 5 1\n",
		"negative end":      two + "edge -1 0 1\n",
		"self loop":         two + "edge 1 1 1\n",
		"zero edge weight":  two + "edge 0 1 0\n",
		"neg edge weight":   two + "edge 0 1 -4\n",
		"nan edge weight":   two + "edge 0 1 NaN\n",
		"missing edge wt":   two + "edge 0 1\n",
		"edge extra field":  two + "edge 0 1 1 1\n",
		"edge past m":       two + "edge 0 1 1\nedge 1 0 1\n",
		"duplicate":         "graph 2 2\nnode 0 1\nnode 1 1\nedge 0 1 1\nedge 0 1 1\n",
		"duplicate flipped": "graph 2 2\nnode 0 1\nnode 1 1\nedge 0 1 1\nedge 1 0 2\n",
		"missing edge line": two,
	}
	for name, in := range cases {
		if g, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted (graph: %d nodes %d edges)", name, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestReadPartitionRejectsMalformed(t *testing.T) {
	cases := map[string]struct {
		in    string
		parts int
	}{
		"empty":         {"", 0},
		"negative":      {"0\n-1\n", 0},
		"non-integer":   {"0\nx\n", 0},
		"out of range":  {"0\n3\n", 2},
		"trailing":      {"0 1\n", 0},
		"uint16 bounds": {"70000\n", 0},
	}
	for name, c := range cases {
		if _, err := ReadPartition(strings.NewReader(c.in), c.parts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFormatByName(t *testing.T) {
	for name, want := range map[string]Format{
		"metis": FormatMETIS, "edgelist": FormatEdgeList, "el": FormatEdgeList,
		"text": FormatText, "": FormatAuto, "auto": FormatAuto,
	} {
		got, err := FormatByName(name)
		if err != nil || got != want {
			t.Errorf("FormatByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := FormatByName("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestDetectFormat(t *testing.T) {
	for path, want := range map[string]Format{
		"a/b.metis": FormatMETIS, "c.graph": FormatMETIS,
		"x.el": FormatEdgeList, "x.edges": FormatEdgeList,
		"mesh167.g": FormatText, "noext": FormatText,
	} {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
}
