package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/graph"
)

// GraphHash returns the canonical content address of g — "sha256:" plus the
// hex digest of the graph's full content (structure, node and edge weights,
// coordinates). This is the address PUT /v1/graphs returns and batch jobs
// reference; equal graphs hash equal regardless of wire encoding.
func GraphHash(g *graph.Graph) string {
	h := hashGraph(g)
	return "sha256:" + hex.EncodeToString(h[:])
}

// cacheKeyFromHash derives the content address of a request: the graph's
// content hash joined with the algorithm name and every result-relevant
// option. Two requests with the same key are guaranteed the same partition
// (the registry's determinism contract), which is what makes returning a
// cached result sound — and bit-identical. Deriving the key costs string
// formatting, never a rehash — this is what makes an N-spec batch over one
// stored graph exactly one content hash, not N.
func cacheKeyFromHash(graphHash, algoName string, o algo.Options) string {
	return fmt.Sprintf("%s:%s:p%d.o%d.s%d.g%d.n%d.i%d.r%d.c%d.l%d",
		graphHash, algoName,
		o.Parts, int(o.Objective), o.Seed,
		o.Generations, o.PopSize, o.Islands,
		o.RefinePasses, o.CoarsestSize, o.LanczosIter)
}

// hashGraph digests a graph's full content — structure, node and edge
// weights, and coordinates — in a canonical order, so equal graphs hash
// equal regardless of how they were built or parsed. CSR adjacency is
// already canonical (sorted rows), so one pass over the public accessors
// suffices.
func hashGraph(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		h.Write(scratch[:])
	}
	writeF64 := func(f float64) { writeU64(math.Float64bits(f)) }

	n := g.NumNodes()
	writeU64(uint64(n))
	writeU64(uint64(g.NumEdges()))
	hasCoords := g.HasCoords()
	if hasCoords {
		writeU64(1)
	} else {
		writeU64(0)
	}
	for v := 0; v < n; v++ {
		writeF64(g.NodeWeight(v))
		if hasCoords {
			p := g.Coord(v)
			writeF64(p.X)
			writeF64(p.Y)
		}
		nbrs := g.Neighbors(v)
		ws := g.EdgeWeights(v)
		writeU64(uint64(len(nbrs)))
		for i, u := range nbrs {
			writeU64(uint64(u))
			writeF64(ws[i])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
