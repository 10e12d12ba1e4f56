package gio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// METIS graph format: a header line "n m [fmt [ncon]]" followed by one line
// per vertex (1-indexed) listing its neighbors. fmt is a bit code: 1 enables
// edge weights (each neighbor followed by its weight), 10 vertex weights
// (each vertex line starts with its weight), 11 both. Comment lines start
// with '%'. The format lists every edge from both endpoints, which the
// reader verifies (one-sided edges and mismatched weights are input errors,
// not repairable noise).

// ReadMETIS parses a graph in METIS format, streaming the vertex lines
// straight into CSR arrays. It enforces the format's invariants: 1-indexed
// neighbors in [1, n], no self loops, no duplicate neighbors, symmetric
// adjacency with matching weights, and a directed-edge total of exactly 2m.
func ReadMETIS(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	line, err := nextMETISLine(sc)
	if err != nil {
		return nil, fmt.Errorf("gio: METIS header: %w", err)
	}
	n, m, hasVW, hasEW, err := parseMETISHeader(string(line))
	if err != nil {
		return nil, err
	}

	// Stream vertex lines into CSR. Degrees are not declared per vertex, so
	// adjacency grows by append; the 2m count from the header presizes it
	// exactly for well-formed inputs. Presizing is capped so a forged header
	// claiming a billion nodes over a ten-byte body fails on the missing
	// vertex lines instead of allocating gigabytes up front — the reader is
	// fed untrusted uploads by the partd service.
	offsets := make([]int32, 1, capHint(n+1))
	adj := make([]int32, 0, capHint(2*m))
	var ew []float64
	if hasEW {
		ew = make([]float64, 0, capHint(2*m))
	}
	nw := make([]float64, 0, capHint(n))
	for v := 0; v < n; v++ {
		line, err := nextMETISLine(sc)
		if err != nil {
			return nil, fmt.Errorf("gio: METIS vertex %d: %w", v+1, err)
		}
		f := fielder{s: line}
		wv := 1.0
		if hasVW {
			tok, ok := f.next()
			if !ok {
				return nil, fmt.Errorf("gio: METIS vertex %d: missing vertex weight", v+1)
			}
			wv, err = parseWeight(tok)
			if err != nil || wv < 0 {
				return nil, fmt.Errorf("gio: METIS vertex %d: bad vertex weight %q", v+1, tok)
			}
		}
		nw = append(nw, wv)
		for {
			tok, ok := f.next()
			if !ok {
				break
			}
			u, ok := atoi(tok)
			if !ok || u < 1 || u > n {
				return nil, fmt.Errorf("gio: METIS vertex %d: bad neighbor %q (neighbors are 1-indexed in [1,%d])", v+1, tok, n)
			}
			if u-1 == v {
				return nil, fmt.Errorf("gio: METIS vertex %d: self loop", v+1)
			}
			w := 1.0
			if hasEW {
				tok, ok := f.next()
				if !ok {
					return nil, fmt.Errorf("gio: METIS vertex %d: neighbor %d missing edge weight", v+1, u)
				}
				w, err = parseWeight(tok)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("gio: METIS vertex %d: bad edge weight %q", v+1, tok)
				}
			}
			adj = append(adj, int32(u-1))
			if hasEW {
				ew = append(ew, w)
			}
		}
		offsets = append(offsets, int32(len(adj)))
	}
	if len(adj) != 2*m {
		return nil, fmt.Errorf("gio: METIS header claims %d edges, vertex lines list %d edge endpoints (want %d)", m, len(adj), 2*m)
	}
	if !hasEW {
		ew = make([]float64, len(adj))
		for i := range ew {
			ew[i] = 1
		}
	}

	// Canonicalize rows; FromCSR's validation pass then enforces the
	// format's remaining contract (strictly sorted rows rule out duplicate
	// neighbors, and every edge must appear from both endpoints with equal
	// weight). One validation pass, not two. Its errors carry 0-indexed node
	// ids, hence the wrapping.
	for v := 0; v < n; v++ {
		graph.SortAdjacency(adj[offsets[v]:offsets[v+1]], ew[offsets[v]:offsets[v+1]])
	}
	g, err := graph.FromCSR(offsets, adj, ew, nw, nil)
	if err != nil {
		return nil, fmt.Errorf("gio: METIS (node ids 0-indexed): %w", err)
	}
	return g, nil
}

// WriteMETIS serializes g in METIS format. Vertex and edge weights are
// emitted only when any differ from 1, keeping unit graphs in the simplest
// form. METIS weights are integral; non-integral weights are rejected.
// Coordinates, if any, are not representable and silently dropped.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	n := g.NumNodes()
	hasVW, hasEW := false, false
	for v := 0; v < n; v++ {
		wv := g.NodeWeight(v)
		if wv != 1 {
			hasVW = true
		}
		if !writableWeight(wv) {
			return fmt.Errorf("gio: METIS requires an integral node weight within ±2^53, got %v on node %d", wv, v)
		}
		for i, we := range g.EdgeWeights(v) {
			if we != 1 {
				hasEW = true
			}
			if !writableWeight(we) {
				return fmt.Errorf("gio: METIS requires an integral edge weight within ±2^53, got %v on {%d,%d}", we, v, g.Neighbors(v)[i])
			}
		}
	}
	bw := bufio.NewWriterSize(w, writeBufSize)
	code := ""
	switch {
	case hasVW && hasEW:
		code = " 11"
	case hasVW:
		code = " 10"
	case hasEW:
		code = " 1"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", n, g.NumEdges(), code); err != nil {
		return err
	}
	var buf []byte
	for v := 0; v < n; v++ {
		buf = buf[:0]
		if hasVW {
			buf = strconv.AppendInt(buf, int64(g.NodeWeight(v)), 10)
		}
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if len(buf) > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(u)+1, 10)
			if hasEW {
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(ws[i]), 10)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseMETISHeader decodes "n m [fmt [ncon]]".
func parseMETISHeader(line string) (n, m int, hasVW, hasEW bool, err error) {
	hdr := strings.Fields(line)
	if len(hdr) < 2 || len(hdr) > 4 {
		return 0, 0, false, false, fmt.Errorf("gio: malformed METIS header %q", line)
	}
	n, err1 := strconv.Atoi(hdr[0])
	m, err2 := strconv.Atoi(hdr[1])
	if err1 != nil || err2 != nil || n < 0 || m < 0 {
		return 0, 0, false, false, fmt.Errorf("gio: malformed METIS header %q", line)
	}
	if len(hdr) >= 3 {
		switch hdr[2] {
		case "0", "00", "000":
		case "1", "01", "001":
			hasEW = true
		case "10", "010":
			hasVW = true
		case "11", "011":
			hasVW, hasEW = true, true
		default:
			return 0, 0, false, false, fmt.Errorf("gio: unsupported METIS fmt code %q", hdr[2])
		}
	}
	if len(hdr) == 4 && hdr[3] != "1" {
		return 0, 0, false, false, fmt.Errorf("gio: multi-constraint METIS graphs (ncon=%s) are not supported", hdr[3])
	}
	return n, m, hasVW, hasEW, nil
}

// nextMETISLine returns the next non-comment line. METIS treats an empty
// vertex line as "no neighbors", so only '%' comments are skipped and empty
// lines are returned as-is.
func nextMETISLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("%")) {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// writableWeight reports whether w can be emitted as a METIS integer:
// integral and within ±2^53, the exactly-representable float64 range (which
// also keeps the int64 conversion below overflow — huge finite weights
// would otherwise print as garbage). NaN fails the Trunc equality,
// infinities the bound.
func writableWeight(w float64) bool {
	return w == math.Trunc(w) && math.Abs(w) <= 1<<53
}

// capHint bounds a header-derived preallocation size. Slices still grow to
// whatever the input actually contains; this only keeps a forged header from
// forcing a huge up-front allocation.
func capHint(n int) int {
	const max = 1 << 20
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}
