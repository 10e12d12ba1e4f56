package gio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMETIS drives the METIS parser with arbitrary bytes. The invariants:
// it must never panic, any graph it accepts must Validate, and an accepted
// graph must survive a write→read round trip unchanged. The seed corpus
// covers every format variant and the interesting rejection families; `go
// test` always runs the corpus, so these double as regression tests.
func FuzzReadMETIS(f *testing.F) {
	seeds := []string{
		"",
		"0 0\n",
		"2 1\n2\n1\n",
		"3 1\n2\n1\n\n",                 // isolated vertex
		"% comment\n2 1\n% mid\n2\n1\n", // comments everywhere
		"2 1 1\n2 5\n1 5\n",             // edge weights
		"2 1 10\n3 2\n1 1\n",            // vertex weights
		"2 1 11\n3 2 5\n1 1 5\n",        // both
		"2 1 11 1\n3 2 5\n1 1 5\n",      // ncon present
		"7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n", // manual fixture
		"2 5\n2\n1\n",               // edge count mismatch
		"2 1\n1\n1\n",               // self loop
		"2 1\n9\n1\n",               // out of range
		"2 1\n0\n1\n",               // 0-indexed neighbor
		"2 1\n2\n\n",                // asymmetric
		"2 2\n2 2\n1 1\n",           // duplicate neighbor
		"2 1 1\n2 NaN\n1 NaN\n",     // non-finite weight
		"999999999 999999999\n",     // allocation-bomb header
		"2 1 1\n2 1e300\n1 1e300\n", // readable but unwritable weight
		"1 0\n" + strings.Repeat(" ", 300) + "\n", // long blank tail
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMETIS(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", verr, data)
		}
		var buf bytes.Buffer
		if werr := WriteMETIS(&buf, g); werr != nil {
			// Fractional weights are readable but not writable; that is the
			// only legitimate write failure.
			if !strings.Contains(werr.Error(), "integral") {
				t.Fatalf("write failed: %v\ninput: %q", werr, data)
			}
			return
		}
		g2, rerr := ReadMETIS(&buf)
		if rerr != nil {
			t.Fatalf("round trip rejected own output: %v\noutput: %q", rerr, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

// FuzzReadEdgeList holds the edge-list parser to the same no-panic /
// validates / round-trips contract.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"0 1\n",
		"1 0\n2 1\n0 2 3\n",
		"# comment\n0 1 2.5\n",
		"0 1\n1 0\n", // duplicate reversed
		"3 3\n",      // self loop
		"0 -1\n",
		"0 1 0\n",
		"0 99999\n",
		"0 16777215\n", // sparse-id allocation bomb
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", verr, data)
		}
		var buf bytes.Buffer
		if werr := WriteEdgeList(&buf, g); werr != nil {
			t.Fatalf("write failed: %v", werr)
		}
		g2, rerr := ReadEdgeList(&buf)
		if rerr != nil {
			t.Fatalf("round trip rejected own output: %v\noutput: %q", rerr, buf.String())
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edges: %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReadText holds the native text reader, which partd feeds untrusted
// uploads and peer transfers, to the same no-panic / validates contract, and
// to a stronger round trip: re-reading WriteText's output of an accepted
// graph must give back the same text, byte for byte.
func FuzzReadText(f *testing.F) {
	seeds := []string{
		"",
		"graph 0 0\n",
		"graph 1 0\nnode 0 1\n",
		"graph 3 2\nnode 0 1\nnode 1 2.5\nnode 2 0\nedge 0 1 1\nedge 2 1 0.125\n",
		"graph 2 1 coords\nnode 0 1 0.5 -1e-300\nnode 1 -0 3 4\nedge 1 0 7\n",
		"# comment\n\ngraph 2 1\nnode 0 1\n# mid\nnode 1 1\nedge 0 1 1\n",
		"graph 2 1\nedge 0 1 1\nnode 0 1\nnode 1 1\n",             // edges before nodes
		"graph 2 2\nnode 0 1\nnode 1 1\nedge 0 1 1\nedge 1 0 2\n", // duplicate flipped
		"graph 2 1\nnode 0 1\nnode 1 1\nedge 0 1 -4\n",
		"graph 1 0\nnode 0 NaN\n",
		"graph 3 1 foo\n",
		"graph 2 0\nnode 1 1\nnode 0 1\n",
		"graph 16777216 0\n", // allocation-bomb header
		"graph 268435456 1073741824 coords\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", verr, data)
		}
		var once, twice bytes.Buffer
		if werr := WriteText(&once, g); werr != nil {
			t.Fatalf("write failed: %v", werr)
		}
		g2, rerr := ReadText(bytes.NewReader(once.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected own output: %v\noutput: %q", rerr, once.String())
		}
		if werr := WriteText(&twice, g2); werr != nil {
			t.Fatalf("second write failed: %v", werr)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("WriteText(ReadText(x)) is not a fixed point:\n%q\n%q", once.String(), twice.String())
		}
	})
}
