package service_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/service"
)

// binaryHeader is the 21-byte header of the canonical graph binary: magic,
// node count, adjacency length and the coordinates flag.
func binaryHeader(nodes, adj uint64, coords byte) []byte {
	b := []byte("PDG1")
	b = binary.LittleEndian.AppendUint64(b, nodes)
	b = binary.LittleEndian.AppendUint64(b, adj)
	return append(b, coords)
}

func encodeBinary(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := service.WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyGraph is a weighted 3-node path, embedded in the plane when coords is
// set.
func tinyGraph(coords bool) *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2.5)
	b.SetNodeWeight(2, 3)
	if coords {
		for v := range 3 {
			b.SetCoord(v, graph.Point{X: float64(v), Y: -0.5 * float64(v)})
		}
	}
	return b.Build()
}

// A header that claims far more than the payload carries must fail after
// allocating in proportion to the bytes received, not to the claim: 2^24
// nodes would be 128 MiB of node weights alone.
func TestReadGraphBinaryAllocationTracksPayload(t *testing.T) {
	hdr := binaryHeader(1<<24, 0, 0)
	if len(hdr) != 21 {
		t.Fatalf("header is %d bytes, want 21", len(hdr))
	}
	// The least of a few tries, so a background allocation elsewhere in the
	// test binary cannot fail the bound.
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := service.ReadGraphBinary(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("decoding a bare header: err %v, want one wrapping io.EOF", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("decoding a 21-byte header allocated %d bytes, want under 1 MiB", least)
	}
}

// FuzzReadGraphBinary drives the peer-transfer decoder with arbitrary
// bytes. It must never panic, and a payload it accepts must be canonical:
// re-encoding the graph reproduces it byte for byte.
func FuzzReadGraphBinary(f *testing.F) {
	// Small graphs keep the fuzzer's minimization, which is quadratic in an
	// input's length, cheap.
	plain := encodeBinary(f, tinyGraph(false))
	coords := encodeBinary(f, tinyGraph(true))
	for _, seed := range [][]byte{
		plain,
		coords,
		plain[:len(plain)-1],
		coords[:len(coords)/2],
		coords[:21],
		append(append([]byte(nil), plain...), 0),
		binaryHeader(1<<24, 0, 0),
		binaryHeader(1<<28, 1<<31, 1),
		binaryHeader(1<<40, 2, 0),
		binaryHeader(1, 0, 0),
		binaryHeader(2, 2, 2),
		[]byte("PDG"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := service.ReadGraphBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if again := encodeBinary(t, g); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
