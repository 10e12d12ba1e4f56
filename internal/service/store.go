package service

import (
	"strings"
	"sync"

	"repro/internal/gio"
	"repro/internal/graph"
)

// GraphStore is the daemon's content-addressed graph store: the data plane
// of the v2 API. Clients PUT a serialized graph once, the store parses it
// into CSR and addresses it by the SHA-256 of its canonical content
// ("sha256:<hex>"), and every subsequent job references the stored CSR by
// hash — no re-upload, no re-parse, no re-hash. Identical graphs (byte-wise
// different encodings included: the hash covers the parsed content, not the
// wire text) deduplicate onto one stored copy.
//
// The store is bounded by the approximate CSR bytes it retains, with LRU
// eviction — a Get or a dedup refreshes recency. Eviction never invalidates
// running jobs (they hold the *graph.Graph), only future by-hash lookups,
// which fail with a structured graph_not_found so the client re-uploads.
//
// The Parses/Hashes counters exist so tests (and operators) can assert the
// upload-once contract: one PUT followed by an N-spec batch is exactly one
// parse and one content hash, not N.
type GraphStore struct {
	mu     sync.Mutex
	graphs *lru[*StoredGraph]

	puts, dedups, parses, hashes, gets, misses, evictions uint64
}

// StoredGraph is one stored, parsed graph and its content address.
type StoredGraph struct {
	Hash  string `json:"hash"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`

	Graph *graph.Graph `json:"-"`
}

// StoreStats are the store's instrumentation counters.
type StoreStats struct {
	Graphs        int    `json:"graphs"`
	Bytes         int64  `json:"bytes"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Puts          uint64 `json:"puts"`   // graphs offered (ParseAndPut/Put calls)
	Dedups        uint64 `json:"dedups"` // offered graphs already present
	Parses        uint64 `json:"parses"` // wire payloads parsed into CSR
	Hashes        uint64 `json:"hashes"` // content hashes computed
	Gets          uint64 `json:"gets"`   // by-hash lookups served
	Misses        uint64 `json:"misses"` // by-hash lookups that failed (unknown or evicted)
	Evictions     uint64 `json:"evictions"`
}

// NewGraphStore builds a store bounded by maxBytes of approximate CSR
// payload (<= 0 selects 256 MiB).
func NewGraphStore(maxBytes int64) *GraphStore {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &GraphStore{graphs: newLRU[*StoredGraph](maxBytes)}
}

// graphBytes approximates a graph's resident CSR footprint: offsets,
// adjacency and edge weights (both directions of every undirected edge),
// node weights, and the optional embedding.
func graphBytes(g *graph.Graph) int64 {
	n, m := int64(g.NumNodes()), int64(g.NumEdges())
	b := 4*(n+1) + 2*m*(4+8) + 8*n
	if g.HasCoords() {
		b += 16 * n
	}
	return b
}

// ParsePayload parses a graph payload as it arrives on the wire; format is
// a gio format name ("" and "auto" mean METIS). It refuses an unknown format
// (bad_format) and an empty or unparsable payload (bad_graph). parsing, if
// non-nil, runs just before the parse itself, so a caller can count parses
// without counting the cheap refusals.
func ParsePayload(format, payload string, parsing func()) (*graph.Graph, *RequestError) {
	f, err := gio.FormatByName(format)
	if err != nil {
		return nil, reqErr("bad_format", "unknown graph format %q (want metis, edgelist, or text)", format)
	}
	if f == gio.FormatAuto {
		f = gio.FormatMETIS
	}
	if payload == "" {
		return nil, reqErr("bad_graph", "request carries no graph payload")
	}
	if parsing != nil {
		parsing()
	}
	g, err := gio.ReadGraph(f, strings.NewReader(payload))
	if err != nil {
		return nil, reqErr("bad_graph", "%s", err)
	}
	return g, nil
}

// ParseAndPut parses one wire payload into CSR (see ParsePayload) and stores
// it, reporting whether the graph was already present. The parse is
// counted: this is the parse the upload-once contract says happens exactly
// once per distinct graph upload.
func (s *GraphStore) ParseAndPut(format, payload string) (*StoredGraph, bool, *RequestError) {
	g, re := ParsePayload(format, payload, func() {
		s.mu.Lock()
		s.parses++
		s.mu.Unlock()
	})
	if re != nil {
		return nil, false, re
	}
	sg, existed := s.Put(g)
	return sg, existed, nil
}

// Put stores an already-parsed graph under its content address, deduplicating
// by hash: offering a graph that is already stored refreshes its recency and
// returns the existing copy (existed = true), discarding g. An oversized
// graph is retained alone (see lru.add) instead of being unstorable.
func (s *GraphStore) Put(g *graph.Graph) (*StoredGraph, bool) {
	s.mu.Lock()
	s.hashes++
	s.mu.Unlock()
	hash := GraphHash(g) // outside the lock: hashing is O(V+E)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if sg, ok := s.graphs.get(hash); ok {
		s.dedups++
		return sg, true
	}
	sg := &StoredGraph{Hash: hash, Nodes: g.NumNodes(), Edges: g.NumEdges(), Graph: g}
	s.evictions += uint64(s.graphs.add(hash, sg, graphBytes(g)))
	return sg, false
}

// Get returns the stored graph addressed by hash, refreshing its recency.
func (s *GraphStore) Get(hash string) (*StoredGraph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.graphs.get(hash)
	if !ok {
		s.misses++
		return nil, false
	}
	s.gets++
	return sg, true
}

// Stats returns the current counters.
func (s *GraphStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Graphs:        s.graphs.len(),
		Bytes:         s.graphs.bytes,
		CapacityBytes: s.graphs.maxBytes,
		Puts:          s.puts,
		Dedups:        s.dedups,
		Parses:        s.parses,
		Hashes:        s.hashes,
		Gets:          s.gets,
		Misses:        s.misses,
		Evictions:     s.evictions,
	}
}

// ValidateGraphRef checks the wire shape of a graph reference ("sha256:"
// plus 64 hex digits) before any store lookup, so typos fail with a clear
// bad_graph_ref rather than a misleading not-found; nil means ok.
func ValidateGraphRef(ref string) *RequestError {
	const prefix = "sha256:"
	if len(ref) != len(prefix)+64 || ref[:len(prefix)] != prefix {
		return reqErr("bad_graph_ref", "graph reference %q is not of the form sha256:<64 hex digits> (as returned by PUT /v1/graphs)", ref)
	}
	for _, c := range ref[len(prefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return reqErr("bad_graph_ref", "graph reference %q is not of the form sha256:<64 hex digits> (as returned by PUT /v1/graphs)", ref)
		}
	}
	return nil
}
