package gio

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestMETISRoundTripUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(25)
	for u := 0; u < 25; u++ {
		for v := u + 1; v < 25; v++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(u, v, 1)
			}
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Unit graph: no fmt code in header.
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if len(strings.Fields(first)) != 2 {
		t.Errorf("unit graph header %q should have 2 fields", first)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestMETISRoundTripNodeWeighted(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(0, 3)
	b.SetNodeWeight(2, 2)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "10") {
		t.Errorf("node-weighted graph header missing fmt 10: %q", buf.String())
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestMETISRoundTripEdgeWeighted(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 7)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	hdr := strings.SplitN(buf.String(), "\n", 2)[0]
	if fields := strings.Fields(hdr); len(fields) != 3 || fields[2] != "1" {
		t.Errorf("edge-weighted graph header should end in fmt 1: %q", hdr)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestMETISRoundTripFullyWeighted(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(0, 3)
	b.SetNodeWeight(2, 2)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 7)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "11") {
		t.Errorf("weighted graph header missing fmt 11: %q", buf.String())
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
	if g2.NodeWeight(0) != 3 || g2.NodeWeight(1) != 1 {
		t.Error("node weights lost")
	}
}

// A contracted graph is the weighted case the multilevel pipeline produces:
// summed node weights, accumulated parallel-edge weights. Serializing one
// through METIS must be the identity.
func TestMETISRoundTripContracted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(60)
	for u := 0; u < 60; u++ {
		for v := u + 1; v < 60; v++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(u, v, float64(1+rng.Intn(4)))
			}
		}
	}
	fine := b.Build()
	coarseOf := make([]int, 60)
	for v := range coarseOf {
		coarseOf[v] = v / 3 // collapse triples
	}
	g := graph.Contract(fine, coarseOf, 20, 1)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
	for v := 0; v < g.NumNodes(); v++ {
		if g.NodeWeight(v) != g2.NodeWeight(v) {
			t.Fatalf("node %d weight %v != %v", v, g.NodeWeight(v), g2.NodeWeight(v))
		}
	}
	// Second trip: read→write→read must also be the identity.
	var buf2 bytes.Buffer
	if err := WriteMETIS(&buf2, g2); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadMETIS(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g2, g3)
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	a.Edges(func(u, v int, w float64) bool {
		if b.EdgeWeightBetween(u, v) != w {
			t.Errorf("edge {%d,%d} weight %v vs %v", u, v, w, b.EdgeWeightBetween(u, v))
		}
		return true
	})
	for v := 0; v < a.NumNodes(); v++ {
		if a.NodeWeight(v) != b.NodeWeight(v) {
			t.Errorf("node %d weight %v vs %v", v, a.NodeWeight(v), b.NodeWeight(v))
		}
	}
}

func TestMETISKnownFixture(t *testing.T) {
	// The classic example from the METIS manual: 7 vertices, 11 edges.
	in := `% example graph
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 || g.NumEdges() != 11 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 4) || !g.HasEdge(3, 6) || g.HasEdge(0, 6) {
		t.Error("edge structure wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMETISIsolatedVertex(t *testing.T) {
	in := "3 1\n2\n1\n\n" // vertex 3 has no neighbors (empty line)
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 0 {
		t.Errorf("vertex 3 degree %d", g.Degree(2))
	}
}

func TestWriteMETISRejectsFractionalWeights(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1.5)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, b.Build()); err == nil {
		t.Error("fractional edge weight accepted")
	}
	b2 := graph.NewBuilder(2)
	b2.SetNodeWeight(0, 2.5)
	b2.AddEdge(0, 1, 2) // integral edge weight, fractional node weight
	if err := WriteMETIS(&buf, b2.Build()); err == nil {
		t.Error("fractional node weight accepted")
	}
}

// Property: METIS round trip preserves arbitrary weighted random graphs.
func TestQuickMETISRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					b.AddEdge(u, v, float64(1+rng.Intn(9)))
				}
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if WriteMETIS(&buf, g) != nil {
			return false
		}
		g2, err := ReadMETIS(&buf)
		if err != nil || g2.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v int, w float64) bool {
			if g2.EdgeWeightBetween(u, v) != w {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// Reading a power-law graph from METIS rows listed in shuffled order, with
// edge weights, must give exactly the graph FromEdges assembles from its
// edge list. Its rows lie on every path of the row sort: short rows, long
// rows over a narrow id span (the hubs) and long rows spread over the whole
// id range.
func TestMETISPowerLawMatchesFromEdges(t *testing.T) {
	const n = 20000
	pl := gen.PowerLaw(n, 4, 5)
	rng := rand.New(rand.NewSource(5))
	var us, vs []int32
	var ws []float64
	pl.Edges(func(u, v int, _ float64) bool {
		us, vs, ws = append(us, int32(u)), append(vs, int32(v)), append(ws, float64(1+rng.Intn(9)))
		return true
	})
	type entry struct {
		u int32
		w float64
	}
	rows := make([][]entry, n)
	for i := range us {
		rows[us[i]] = append(rows[us[i]], entry{vs[i], ws[i]})
		rows[vs[i]] = append(rows[vs[i]], entry{us[i], ws[i]})
	}
	var text strings.Builder
	fmt.Fprintf(&text, "%d %d 1\n", n, len(us))
	var short, dense, sparse int
	for _, row := range rows {
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		lo, hi := int32(n), int32(-1)
		for i, e := range row {
			if i > 0 {
				text.WriteByte(' ')
			}
			fmt.Fprintf(&text, "%d %g", e.u+1, e.w)
			lo, hi = min(lo, e.u), max(hi, e.u)
		}
		text.WriteByte('\n')
		// The row sort's dense rule: a bitset of at most d·⌈log2 d⌉ words.
		switch d := len(row); {
		case d <= 24:
			short++
		case (int(hi-lo)+64)/64 <= d*bits.Len(uint(d-1)):
			dense++
		default:
			sparse++
		}
	}
	if short == 0 || dense == 0 || sparse == 0 {
		t.Fatalf("rows short/dense/sparse = %d/%d/%d; want every kind", short, dense, sparse)
	}
	got, err := ReadMETIS(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	rng.Shuffle(len(us), func(i, j int) {
		us[i], us[j] = us[j], us[i]
		vs[i], vs[j] = vs[j], vs[i]
		ws[i], ws[j] = ws[j], ws[i]
	})
	nw := make([]float64, n)
	for v := range nw {
		nw[v] = 1
	}
	want, err := graph.FromEdges(us, vs, ws, nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("read %d nodes, %d edges; FromEdges %d, %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || !slices.Equal(got.EdgeWeights(v), want.EdgeWeights(v)) ||
			got.NodeWeight(v) != want.NodeWeight(v) {
			t.Fatalf("node %d: read row %v %v, FromEdges row %v %v", v, got.Neighbors(v), got.EdgeWeights(v), want.Neighbors(v), want.EdgeWeights(v))
		}
	}
}
