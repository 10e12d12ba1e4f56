package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// Native text format: the repository's own line-oriented format, close to
// the Chaco/METIS family and the only one that carries coordinates:
//
//	graph <numNodes> <numEdges> [coords]
//	node <id> <weight> [<x> <y>]        (one per node, ids 0..n-1 in order)
//	edge <u> <v> <weight>               (one per undirected edge)
//
// Blank lines and lines starting with '#' are ignored. WriteText emits nodes
// and edges in canonical order (edges with u < v) and every float in its
// shortest round-trip form, so the format round-trips a graph bit for bit:
// the fleet transfers stored graphs between shards in it and re-hashes what
// arrives.

// Bounds on the counts a text header may claim. They keep every node id
// inside int32 (graph.FromEdges refuses more edges than int32 offsets can
// index); nothing is allocated from them.
const (
	maxTextNodes = 1 << 28
	maxTextEdges = 1 << 30
)

// ReadText parses the native text format. The header must be exactly
// "graph <n> <m>" or "graph <n> <m> coords", with n <= 2^28 and m <= 2^30.
// Node lines give ids 0..n-1 in order, each with a finite weight >= 0 and,
// under "coords", finite coordinates; edge lines name two distinct ends in
// [0, n), in either orientation, with a finite weight > 0. A node line past
// the n-th or an edge line past the m-th is refused when it arrives, and the
// input must end with exactly n node lines and m edge lines. Lines are
// capped at 1 MiB. Each violation is an error naming its line, except an
// edge listed twice, which graph.FromEdges reports by its ends.
//
// Nothing is presized from the header: the arrays grow only with the lines
// received, so a short upload claiming 2^28 nodes fails on its missing node
// lines having allocated next to nothing.
func ReadText(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n, m := -1, 0 // n < 0 until the header is read
	hasCoords := false
	var nw []float64
	var coords []graph.Point
	var us, vs []int32
	var ws []float64
	lineNo := 0
	errorf := func(format string, args ...any) error {
		return fmt.Errorf("gio: text line %d: "+format, append([]any{lineNo}, args...)...)
	}
	var toks [6][]byte // one more than the longest line has
	for sc.Scan() {
		lineNo++
		f := fielder{s: sc.Bytes()}
		k := 0
		for ; k < len(toks); k++ {
			var ok bool
			if toks[k], ok = f.next(); !ok {
				break
			}
		}
		if k == 0 || toks[0][0] == '#' {
			continue
		}
		if n < 0 && string(toks[0]) != "graph" {
			return nil, errorf("%q before the graph header", toks[0])
		}
		switch string(toks[0]) {
		case "graph":
			if n >= 0 {
				return nil, errorf("duplicate header")
			}
			if k != 3 && (k != 4 || string(toks[3]) != "coords") {
				return nil, errorf("header must be \"graph <nodes> <edges> [coords]\"")
			}
			var ok bool
			if n, ok = atoi(toks[1]); !ok || n < 0 || n > maxTextNodes {
				return nil, errorf("bad node count %q (want 0..%d)", toks[1], maxTextNodes)
			}
			if m, ok = atoi(toks[2]); !ok || m < 0 || m > maxTextEdges {
				return nil, errorf("bad edge count %q (want 0..%d)", toks[2], maxTextEdges)
			}
			hasCoords = k == 4
		case "node":
			want := 3
			if hasCoords {
				want = 5
			}
			if k != want {
				return nil, errorf("node line needs %d fields, got %d", want, k)
			}
			if len(nw) == n {
				return nil, errorf("node line past the header's %d nodes", n)
			}
			if id, ok := atoi(toks[1]); !ok || id != len(nw) {
				return nil, errorf("node id %q out of order (want %d)", toks[1], len(nw))
			}
			w, err := parseWeight(toks[2])
			if err != nil || w < 0 {
				return nil, errorf("bad node weight %q (want finite, >= 0)", toks[2])
			}
			nw = append(nw, w)
			if hasCoords {
				x, err1 := parseWeight(toks[3])
				y, err2 := parseWeight(toks[4])
				if err1 != nil || err2 != nil {
					return nil, errorf("bad coordinates %q %q", toks[3], toks[4])
				}
				coords = append(coords, graph.Point{X: x, Y: y})
			}
		case "edge":
			if k != 4 {
				return nil, errorf("edge line needs 4 fields, got %d", k)
			}
			if len(us) == m {
				return nil, errorf("edge line past the header's %d edges", m)
			}
			u, ok1 := atoi(toks[1])
			v, ok2 := atoi(toks[2])
			if !ok1 || !ok2 || u < 0 || v < 0 || u >= n || v >= n || u == v {
				return nil, errorf("edge {%s,%s} needs two distinct ends in [0,%d)", toks[1], toks[2], n)
			}
			w, err := parseWeight(toks[3])
			if err != nil || w <= 0 {
				return nil, errorf("bad edge weight %q (want finite, > 0)", toks[3])
			}
			us, vs, ws = append(us, int32(u)), append(vs, int32(v)), append(ws, w)
		default:
			return nil, errorf("unknown directive %q", toks[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: text: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("gio: text: no graph header")
	}
	if len(nw) != n || len(us) != m {
		return nil, fmt.Errorf("gio: text: input ends at line %d with %d node and %d edge lines, header claims %d and %d",
			lineNo, len(nw), len(us), n, m)
	}
	g, err := graph.FromEdges(us, vs, ws, nw, coords)
	if err != nil {
		return nil, fmt.Errorf("gio: text: %w", err)
	}
	return g, nil
}

// WriteText serializes g in the native text format.
//
// Lines are built with strconv.Append* into one reused buffer and streamed
// through a writeBufSize bufio.Writer: emitting a multi-million-node graph
// costs O(1) memory beyond the graph, and none of fmt's per-line verb
// parsing.
func WriteText(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, writeBufSize)
	buf := make([]byte, 0, 128)
	buf = append(buf, "graph "...)
	buf = strconv.AppendInt(buf, int64(g.NumNodes()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.NumEdges()), 10)
	if g.HasCoords() {
		buf = append(buf, " coords"...)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		buf = append(buf[:0], "node "...)
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ' ')
		buf = appendWeight(buf, g.NodeWeight(v))
		if g.HasCoords() {
			p := g.Coord(v)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, p.X, 'g', -1, 64)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, p.Y, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	var outerErr error
	g.Edges(func(u, v int, wt float64) bool {
		buf = append(buf[:0], "edge "...)
		buf = strconv.AppendInt(buf, int64(u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ' ')
		buf = appendWeight(buf, wt)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			outerErr = err
			return false
		}
		return true
	})
	if outerErr != nil {
		return outerErr
	}
	return bw.Flush()
}
