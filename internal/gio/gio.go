// Package gio is the graph I/O subsystem: streaming readers and writers for
// the on-disk formats the rest of the ecosystem speaks, feeding the CSR
// graph.Graph directly.
//
// Three graph encodings are supported:
//
//   - METIS/Chaco ("metis"): the interchange format of the partitioning
//     ecosystem (Chaco implements RSB; METIS the multilevel methods). Plain,
//     node-weighted (fmt=10), edge-weighted (fmt=1), and fully weighted
//     (fmt=11) variants all round-trip. Coordinates are not part of the
//     format and are lost on a round trip.
//   - edge list ("edgelist"): one "u v [weight]" line per undirected edge,
//     0-indexed, with '#'/'%' comments. The node count is inferred as the
//     maximum endpoint + 1, so trailing isolated nodes are not representable.
//   - native text ("text"): the repository's own format (see text.go), the
//     only one that carries coordinates, and the only one that round-trips
//     every bit of a graph: the partd fleet moves stored graphs between
//     shards in it.
//
// Partition vectors use the METIS convention: one part id per line, line i
// holding the part of node i.
//
// All three readers stream: they parse line by line into flat arrays and
// never materialize an intermediate adjacency map. METIS lists every row in
// full, so its reader appends the rows straight into CSR and hands them to
// graph.FromCSR; the edge-list and text readers list each edge once and
// hand their endpoint triples to graph.FromEdges, the one counting sort into
// CSR. This is what lets the partd service accept large uploaded graphs
// without tripling their memory footprint. Every reader takes untrusted
// uploads, so none sizes its arrays from a header's claimed counts (METIS
// presizes at most 2^20 entries per array from its header): memory tracks
// the bytes actually received, and each reader has a fuzz target.
//
// Tokenizing allocates nothing per line. The readers tokenize the
// scanner's bytes in place (tokens.go): no line or token becomes a string,
// and integers and weights parse under exactly strconv's grammar
// (FuzzTokens pins it). graph.FromCSR's validation of METIS rows is one
// O(n+m) pass whatever the degrees. Sorting is not linear: the METIS reader
// and graph.FromEdges (behind the edge-list and text readers) sort every
// row with graph.SortAdjacency, which comparison-sorts a row longer than
// 24 entries, so a hub's row costs O(d log d).
package gio

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// writeBufSize sizes the writers' bufio buffers. The graph writers emit
// multi-million-line files (graphgen's scale1M tier); a 1 MiB buffer keeps
// the syscall count in the hundreds where the 4 KiB bufio default would make
// hundreds of thousands of writes.
const writeBufSize = 1 << 20

// appendWeight appends w exactly as strconv.AppendFloat(buf, w, 'g', -1,
// 64) does. An integral w of magnitude below 1e6, other than -0, prints the
// same through strconv.AppendInt, which is several times faster; that is
// every weight of most graphs. (From 1e6 on, 'g' switches to an exponent,
// and -0 keeps its sign.) The writers format node and edge weights with
// it; coordinates go through AppendFloat.
func appendWeight(buf []byte, w float64) []byte {
	if w == math.Trunc(w) && math.Abs(w) < 1e6 && (w != 0 || !math.Signbit(w)) {
		return strconv.AppendInt(buf, int64(w), 10)
	}
	return strconv.AppendFloat(buf, w, 'g', -1, 64)
}

// Format identifies an on-disk graph encoding.
type Format int

const (
	// FormatAuto selects a format from the file extension: .metis/.graph are
	// METIS, .el/.edges/.edgelist are edge lists, everything else the native
	// text format.
	FormatAuto Format = iota
	FormatMETIS
	FormatEdgeList
	FormatText
)

// String returns the name FormatByName accepts.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatMETIS:
		return "metis"
	case FormatEdgeList:
		return "edgelist"
	case FormatText:
		return "text"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// FormatByName parses a format name as used by CLI flags and the partd API.
func FormatByName(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return FormatAuto, nil
	case "metis", "chaco":
		return FormatMETIS, nil
	case "edgelist", "el", "edges":
		return FormatEdgeList, nil
	case "text", "native":
		return FormatText, nil
	default:
		return FormatAuto, fmt.Errorf("gio: unknown graph format %q (want metis, edgelist, or text)", name)
	}
}

// DetectFormat maps a file path to a Format by extension.
func DetectFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".metis", ".graph":
		return FormatMETIS
	case ".el", ".edges", ".edgelist":
		return FormatEdgeList
	default:
		return FormatText
	}
}

// ReadGraph parses a graph from r in the given format (FormatAuto is not
// meaningful without a path and is rejected).
func ReadGraph(f Format, r io.Reader) (*graph.Graph, error) {
	switch f {
	case FormatMETIS:
		return ReadMETIS(r)
	case FormatEdgeList:
		return ReadEdgeList(r)
	case FormatText:
		return ReadText(r)
	default:
		return nil, fmt.Errorf("gio: cannot read format %v from a stream", f)
	}
}

// WriteGraph serializes g to w in the given format.
func WriteGraph(f Format, w io.Writer, g *graph.Graph) error {
	switch f {
	case FormatMETIS:
		return WriteMETIS(w, g)
	case FormatEdgeList:
		return WriteEdgeList(w, g)
	case FormatText:
		return WriteText(w, g)
	default:
		return fmt.Errorf("gio: cannot write format %v", f)
	}
}

// ReadGraphFile opens path and parses it, detecting the format from the
// extension when f is FormatAuto.
func ReadGraphFile(path string, f Format) (*graph.Graph, error) {
	if f == FormatAuto {
		f = DetectFormat(path)
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	g, err := ReadGraph(f, file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
