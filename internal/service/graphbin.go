package service

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Canonical binary graph codec — the fleet's peer-transfer format.
//
// Peer-fetch must move a stored graph between shards *content-hash
// faithfully*: the receiving shard re-hashes what it decodes and refuses a
// mismatch, so the wire format has to round-trip every hashed field. The
// text formats in internal/gio cannot do that (METIS and edge-list carry no
// coordinates, and float weights lose bits through decimal), so the fleet
// transfers the CSR content directly: little-endian, in exactly the
// canonical order hashGraph digests. GET /v1/graphs/{hash}?export=bin serves
// it; PeerFetcher decodes it.
//
// Layout: "PDG1" magic, u64 node count, u64 adjacency length (2x undirected
// edges), u8 hasCoords; then node weights (f64 each), coordinates (x,y f64
// pairs, when present), per-node degrees (u32), adjacency (u32), edge
// weights (f64).

const graphBinMagic = "PDG1"

// maxBinNodes/maxBinAdj guard the decoder against allocation bombs from a
// corrupt or hostile peer before any array is allocated. They admit graphs
// an order of magnitude past the scale1M suites.
const (
	maxBinNodes = 1 << 28
	maxBinAdj   = 1 << 31
)

// binChunk bounds the elements the decoder allocates ahead of the bytes it
// has received: an array starts with room for at most this many and grows
// as elements arrive, so a header that overstates its counts costs memory
// in proportion to the payload actually sent, not to the counts it claims.
const binChunk = 1 << 16

// WriteGraphBinary encodes g in the canonical binary format.
func WriteGraphBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		bw.Write(scratch[:8])
	}
	u32 := func(x uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], x)
		bw.Write(scratch[:4])
	}
	f64 := func(f float64) { u64(math.Float64bits(f)) }

	n := g.NumNodes()
	adjLen := 2 * g.NumEdges()
	bw.WriteString(graphBinMagic)
	u64(uint64(n))
	u64(uint64(adjLen))
	hasCoords := g.HasCoords()
	if hasCoords {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	for v := 0; v < n; v++ {
		f64(g.NodeWeight(v))
	}
	if hasCoords {
		for v := 0; v < n; v++ {
			p := g.Coord(v)
			f64(p.X)
			f64(p.Y)
		}
	}
	for v := 0; v < n; v++ {
		u32(uint32(g.Degree(v)))
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			u32(uint32(u))
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.EdgeWeights(v) {
			f64(w)
		}
	}
	return bw.Flush()
}

// ReadGraphBinary decodes a graph written by WriteGraphBinary, validating
// structure via graph.FromCSR. Callers that received the bytes from an
// untrusted peer should additionally verify the content hash.
func ReadGraphBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var scratch [8]byte
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	f64 := func() (float64, error) {
		x, err := u64()
		return math.Float64frombits(x), err
	}

	magic := make([]byte, len(graphBinMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("service: graph binary header: %w", err)
	}
	if string(magic) != graphBinMagic {
		return nil, fmt.Errorf("service: bad graph binary magic %q", magic)
	}
	n64, err := u64()
	if err != nil {
		return nil, fmt.Errorf("service: graph binary header: %w", err)
	}
	adj64, err := u64()
	if err != nil {
		return nil, fmt.Errorf("service: graph binary header: %w", err)
	}
	if n64 == 0 || n64 > maxBinNodes {
		return nil, fmt.Errorf("service: graph binary names %d nodes (max %d)", n64, maxBinNodes)
	}
	if adj64 > maxBinAdj || adj64%2 != 0 {
		return nil, fmt.Errorf("service: graph binary names %d adjacency entries (max %d, must be even)", adj64, maxBinAdj)
	}
	n, adjLen := int(n64), int(adj64)
	coordByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("service: graph binary header: %w", err)
	}
	if coordByte > 1 {
		return nil, fmt.Errorf("service: graph binary coords flag %d", coordByte)
	}

	nodeWeight, err := appendArray(nil, n, f64)
	if err != nil {
		return nil, fmt.Errorf("service: graph binary node weights: %w", err)
	}
	var coords []graph.Point
	if coordByte == 1 {
		coords, err = appendArray(nil, n, func() (graph.Point, error) {
			x, err := f64()
			if err != nil {
				return graph.Point{}, err
			}
			y, err := f64()
			return graph.Point{X: x, Y: y}, err
		})
		if err != nil {
			return nil, fmt.Errorf("service: graph binary coords: %w", err)
		}
	}
	// The payload carries per-node degrees; offsets accumulate them.
	total := 0
	offsets, err := appendArray([]int32{0}, n, func() (int32, error) {
		deg, err := u32()
		if err != nil {
			return 0, err
		}
		if total += int(deg); total > adjLen {
			return 0, fmt.Errorf("sum exceeds adjacency length %d", adjLen)
		}
		return int32(total), nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: graph binary degrees: %w", err)
	}
	if total != adjLen {
		return nil, fmt.Errorf("service: graph binary degrees sum to %d, header says %d", total, adjLen)
	}
	adj, err := appendArray(nil, adjLen, func() (int32, error) {
		u, err := u32()
		if err == nil && u >= uint32(n) {
			err = fmt.Errorf("neighbor %d out of range (n=%d)", u, n)
		}
		return int32(u), err
	})
	if err != nil {
		return nil, fmt.Errorf("service: graph binary adjacency: %w", err)
	}
	edgeWeight, err := appendArray(nil, adjLen, f64)
	if err != nil {
		return nil, fmt.Errorf("service: graph binary edge weights: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("service: trailing bytes after graph binary payload")
	}
	g, err := graph.FromCSR(offsets, adj, edgeWeight, nodeWeight, coords)
	if err != nil {
		return nil, fmt.Errorf("service: graph binary content: %w", err)
	}
	return g, nil
}

// appendArray appends n elements decoded by next to dst, reserving room for
// at most binChunk of them ahead of their arrival; see binChunk.
func appendArray[T any](dst []T, n int, next func() (T, error)) ([]T, error) {
	out := make([]T, len(dst), len(dst)+min(n, binChunk))
	copy(out, dst)
	for range n {
		x, err := next()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}
