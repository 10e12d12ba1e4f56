package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// Edge-list format: one undirected edge per line as "u v" or "u v weight",
// endpoints 0-indexed, in either orientation. Blank lines and lines starting
// with '#' or '%' are ignored. The node count is the maximum endpoint + 1
// (trailing isolated nodes are not representable; use METIS or the native
// text format for those). Node weights are all 1.

// MaxEdgeListNode bounds edge-list node ids. The node count is max id + 1
// and the CSR arrays are allocated from it, so without a bound a dozen-byte
// upload naming node 2e9 would force a multi-gigabyte allocation.
const MaxEdgeListNode = 1<<24 - 1

// ReadEdgeList parses an edge list, accumulating the endpoint triples in
// flat slices that graph.FromEdges counting-sorts into CSR — no adjacency
// map. Self loops, negative ids, ids above MaxEdgeListNode, ids above 2^20
// that are too sparse for the edge count (the CSR arrays are sized by max
// id + 1), duplicate edges (in either orientation), and non-positive weights
// are errors.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	var us, vs []int32
	var ws []float64
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := fielder{s: sc.Bytes()}
		tok, ok := f.next()
		if !ok || tok[0] == '#' || tok[0] == '%' {
			continue
		}
		u, ok := atoi(tok)
		if !ok || u < 0 || u > MaxEdgeListNode {
			return nil, fmt.Errorf("gio: edge list line %d: bad endpoint %q", lineNo, tok)
		}
		tok, ok = f.next()
		if !ok {
			return nil, fmt.Errorf("gio: edge list line %d: missing second endpoint", lineNo)
		}
		v, ok := atoi(tok)
		if !ok || v < 0 || v > MaxEdgeListNode {
			return nil, fmt.Errorf("gio: edge list line %d: bad endpoint %q", lineNo, tok)
		}
		if u == v {
			return nil, fmt.Errorf("gio: edge list line %d: self loop at node %d", lineNo, u)
		}
		w := 1.0
		if tok, ok = f.next(); ok {
			var err error
			w, err = parseWeight(tok)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("gio: edge list line %d: bad weight %q", lineNo, tok)
			}
			if _, extra := f.next(); extra {
				return nil, fmt.Errorf("gio: edge list line %d: trailing fields", lineNo)
			}
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
		ws = append(ws, w)
		if u >= n {
			n = u + 1
		}
		if v >= n {
			n = v + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: edge list: %w", err)
	}
	if len(us) == 0 {
		return nil, fmt.Errorf("gio: edge list: no edges")
	}
	// The CSR arrays are sized by max id + 1, so huge ids must be backed by
	// enough edges: a tiny upload naming node 2^24 must not cost hundreds
	// of MB of allocations. Ids below 2^20 are always accepted (sparse
	// original ids in subgraph extracts are common and cost at most ~20 MB
	// of scaffolding); beyond that, ids must be dense — any graph without
	// isolated nodes satisfies n <= 2m.
	if maxN := 2*len(us) + 64; n > 1<<20 && n > maxN {
		return nil, fmt.Errorf("gio: edge list: node id %d too sparse for %d edges (ids above %d must satisfy max id < 2*edges + 64)", n-1, len(us), 1<<20)
	}

	nw := make([]float64, n)
	for v := range nw {
		nw[v] = 1
	}
	g, err := graph.FromEdges(us, vs, ws, nw, nil)
	if err != nil {
		return nil, fmt.Errorf("gio: edge list: %w", err)
	}
	return g, nil
}

// WriteEdgeList serializes g as an edge list in canonical (u, v) order with
// u < v. Unit weights are omitted so unweighted graphs stay two columns.
//
// The encoder streams: each line is built with strconv.Append* into one
// reused buffer and flows through a writeBufSize bufio.Writer, so emitting a
// multi-million-edge graph costs O(1) memory beyond the graph itself —
// per-line fmt.Fprintf had the same asymptotics but an order of magnitude
// more per-edge overhead from verb parsing and argument boxing.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, writeBufSize)
	if _, err := fmt.Fprintf(bw, "# %d nodes %d edges\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var outerErr error
	var buf []byte
	g.Edges(func(u, v int, wt float64) bool {
		buf = strconv.AppendInt(buf[:0], int64(u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(v), 10)
		if wt != 1 {
			buf = append(buf, ' ')
			buf = appendWeight(buf, wt)
		}
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
