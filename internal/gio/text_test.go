package gio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// textOf renders g in the text format. WriteText prints every float in its
// shortest round-trip form, so two valid graphs have equal texts exactly
// when they agree bit for bit on every field the format carries.
func textOf(t testing.TB, g *graph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteText(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestTextGoldenRoundTrip(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(2, 1, 2)
	b.SetNodeWeight(2, 3)
	b.SetCoord(0, graph.Point{X: 0.5, Y: 1})
	b.SetCoord(1, graph.Point{X: 1, Y: 2})
	b.SetCoord(2, graph.Point{X: 2, Y: 0})
	g := b.Build()

	const golden = "graph 3 2 coords\n" +
		"node 0 1 0.5 1\nnode 1 1 1 2\nnode 2 3 2 0\n" +
		"edge 0 1 1.5\nedge 1 2 2\n"
	text := textOf(t, g)
	if text != golden {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", text, golden)
	}
	g2, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if again := textOf(t, g2); again != golden {
		t.Fatalf("second WriteText differs:\n%s", again)
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\ngraph 2 1\n  # another\nnode 0 1\n\t\nnode 1 1\r\nedge 1 0 1\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || !g.HasEdge(0, 1) {
		t.Errorf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

// Property: for any random graph, with fractional weights, isolated nodes
// and optional coordinates, WriteText then ReadText is the identity bit for
// bit.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			b.SetNodeWeight(u, rng.Float64()*10)
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(u, v, 1e-3+rng.ExpFloat64())
				}
			}
		}
		if seed%2 == 0 {
			for v := 0; v < n; v++ {
				b.SetCoord(v, graph.Point{X: rng.NormFloat64() * 1e6, Y: -rng.Float64()})
			}
		}
		text := textOf(t, b.Build())
		g2, err := ReadText(strings.NewReader(text))
		if err != nil {
			t.Log(err)
			return false
		}
		return textOf(t, g2) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

// failingWriter fails after n bytes, exercising WriteText's error paths.
type failingWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		can := max(w.n-w.written, 0)
		w.written += can
		return can, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteTextPropagatesErrors(t *testing.T) {
	// Big enough that the 1 MiB write buffer fills mid-stream.
	b := graph.NewBuilder(100000)
	for i := 0; i+1 < 100000; i++ {
		b.AddEdge(i, i+1, 1)
	}
	b.SetCoord(0, graph.Point{X: 1, Y: 2})
	g := b.Build()
	total := len(textOf(t, g))
	for _, limit := range []int{0, 3, total / 2, total - 2} {
		if err := WriteText(&failingWriter{n: limit}, g); err == nil {
			t.Errorf("limit %d: WriteText succeeded despite failing writer", limit)
		}
	}
}

// errReader returns an error mid-stream.
type errReader struct {
	data string
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, errDiskFull
	}
	r.done = true
	return copy(p, r.data), nil
}

func TestReadTextPropagatesReaderErrors(t *testing.T) {
	_, err := ReadText(&errReader{data: "graph 2 1\nnode 0 1\n"})
	if !errors.Is(err, errDiskFull) {
		t.Errorf("ReadText error %v, want one wrapping the reader's", err)
	}
}

func TestReadTextHugeLineRejected(t *testing.T) {
	// The scanner buffer is capped at 1 MiB; a longer line must error, not
	// hang or grow without bound.
	long := "# " + strings.Repeat("x", 2<<20) + "\ngraph 1 0\nnode 0 1\n"
	if _, err := ReadText(strings.NewReader(long)); err == nil {
		t.Error("multi-megabyte line accepted")
	}
}

// A header that claims far more than the input carries must fail after
// allocating in proportion to the bytes received, not to the claim: 2^24
// nodes would be 128 MiB of node weights alone.
func TestReadTextAllocationTracksInput(t *testing.T) {
	for _, in := range []string{
		"graph 16777216 0\n",
		"graph 268435456 1073741824 coords\nnode 0 1 0 0\nedge 0 1 1\n",
	} {
		// The least of a few tries, so a background allocation elsewhere in
		// the test binary cannot fail the bound.
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := ReadText(strings.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%q: accepted a %d-node graph", in, g.NumNodes())
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1<<20 {
			t.Errorf("%q: refusing it allocated %d bytes, want under 1 MiB", in, least)
		}
	}
}

// appendWeight must print every weight byte for byte as AppendFloat's
// shortest 'g' form does: every integer across its AppendInt range and one
// past either end, where 'g' turns to an exponent, then signed zeros,
// fractions, large and non-finite values.
func TestAppendWeightMatchesAppendFloat(t *testing.T) {
	var got, want []byte
	check := func(w float64) {
		got = appendWeight(got[:0], w)
		want = strconv.AppendFloat(want[:0], w, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendWeight(%v) = %q, AppendFloat gives %q", w, got, want)
		}
	}
	for i := -1e6 - 1; i <= 1e6+1; i++ {
		check(i)
	}
	for _, w := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1e-7, 999999.5,
		1e21, -1e21, 1 << 53, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		check(w)
	}
}
