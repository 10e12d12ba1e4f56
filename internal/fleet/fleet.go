// Package fleet implements the partd routing daemon's core: a thin,
// stateless-by-design HTTP proxy that spreads the v2 API across many partd
// shards by consistent-hashing each graph's content address onto the fleet
// (internal/ring).
//
// The router holds no graphs and runs no jobs. Its only state is operational:
// which shards are currently reachable (health-checked actively and marked
// down passively on transport errors), per-shard traffic counters, and a
// bounded payload-digest memo so repeated uploads of the same bytes skip the
// routing parse. Clients speak to the router exactly as they would to a
// single daemon — same endpoints, same envelopes — with one visible
// difference: job ids come back shard-qualified ("s1/j00000042"), so routing
// a job poll needs no lookup table, just the id itself.
//
// Failover is replica-order: when the owning shard is down, keyed requests
// re-resolve to the next live replica on the ring. Keys owned by a dead shard
// may legitimately miss (graph_not_found) until re-uploaded; keys owned by
// survivors never see a 5xx.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/service"
)

// digestCacheSize bounds the payload-digest → content-hash memo (FIFO).
const digestCacheSize = 4096

// Config describes the fleet a Router fronts.
type Config struct {
	// Members is the shard list; names are ring keys and job-id prefixes.
	Members []ring.Member
	// VNodes is the per-member virtual node count (0 = ring.DefaultVNodes).
	VNodes int
	// Token, when set, authenticates router-originated fleet calls (health
	// probes excepted — /v1/healthz is open) for requests that carry no
	// client credential of their own: stats and algos fan-out.
	Token string
	// HealthInterval is the active health-check period (0 = 2s, < 0 = no
	// background checking; passive markdown still applies).
	HealthInterval time.Duration
	// Logf, when set, receives shard up/down transitions.
	Logf func(format string, args ...any)
}

// Router is the fleet proxy. Build with New, serve Handler, Close when done.
type Router struct {
	ring  *ring.Ring
	addrs map[string]string
	token string
	logf  func(string, ...any)
	hc    *http.Client // data plane: no global timeout (wait=1 blocks)
	probe *http.Client // health probes: short timeout

	mux  http.Handler
	stop chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex
	down        map[string]bool
	proxied     map[string]uint64
	routeParses uint64
	routeHits   uint64
	routeErrors uint64
	digests     map[string]string // payload digest -> graph content hash
	digestOrder []string          // FIFO eviction
}

// New builds and starts a Router (including its health loop, unless
// disabled).
func New(cfg Config) (*Router, error) {
	r, err := ring.New(ring.Names(cfg.Members), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring:    r,
		addrs:   make(map[string]string, len(cfg.Members)),
		token:   cfg.Token,
		logf:    cfg.Logf,
		hc:      &http.Client{},
		probe:   &http.Client{Timeout: time.Second},
		stop:    make(chan struct{}),
		down:    make(map[string]bool),
		proxied: make(map[string]uint64),
		digests: make(map[string]string, digestCacheSize),
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	for _, m := range cfg.Members {
		rt.addrs[m.Name] = m.Addr
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("PUT /v1/graphs", rt.handleGraphPut)
	mux.HandleFunc("GET /v1/graphs/{hash}", rt.handleGraphGet)
	mux.HandleFunc("POST /v1/jobs", rt.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{shard}/{id}", rt.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{shard}/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleUnqualifiedJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleUnqualifiedJob)
	mux.HandleFunc("POST /v1/partition", rt.handlePartition)
	mux.HandleFunc("GET /v1/algos", rt.handleAlgos)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux = service.EnvelopeHandler(mux)

	interval := cfg.HealthInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	if interval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop(interval)
	}
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health loop.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// --- health ---

func (rt *Router) healthLoop(interval time.Duration) {
	defer rt.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.Probe()
		}
	}
}

// Probe health-checks every shard once, synchronously, marking each up or
// down. The health loop calls it periodically; tests and scripts may call it
// directly for a deterministic view.
func (rt *Router) Probe() {
	var wg sync.WaitGroup
	for _, name := range rt.ring.Members() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				"http://"+rt.addrs[name]+"/v1/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.probe.Do(req)
			if err != nil {
				rt.setDown(name, true)
				return
			}
			resp.Body.Close()
			rt.setDown(name, resp.StatusCode != http.StatusOK)
		}(name)
	}
	wg.Wait()
}

func (rt *Router) setDown(name string, isDown bool) {
	rt.mu.Lock()
	changed := rt.down[name] != isDown
	rt.down[name] = isDown
	rt.mu.Unlock()
	if changed {
		if isDown {
			rt.logf("fleet: shard %s marked down", name)
		} else {
			rt.logf("fleet: shard %s back up", name)
		}
	}
}

func (rt *Router) isLive(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.down[name]
}

// --- proxy core ---

// shardRequest builds an outbound request to a shard, relaying the client's
// credential headers (or substituting the router's own token when the client
// sent none and the router has one).
func (rt *Router) shardRequest(ctx context.Context, name, method, pathAndQuery string, hdr http.Header, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+rt.addrs[name]+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Authorization", "X-Client", "Content-Type"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if req.Header.Get("Authorization") == "" && rt.token != "" {
		req.Header.Set("Authorization", "Bearer "+rt.token)
	}
	return req, nil
}

// relayHeaders are the shard response headers the router passes through.
var relayHeaders = []string{"Content-Type", "Retry-After", "X-Graph-Hash", "WWW-Authenticate", "Allow"}

// routedDo resolves key to its first live replica and performs the request
// there, failing over to the next live replica on transport error (a shard
// that refuses connections is marked down as a side effect; one that answers
// is marked up). It returns the serving shard's name and response, or an
// error when no live replica answered.
func (rt *Router) routedDo(r *http.Request, key, method, pathAndQuery string, body []byte) (string, *http.Response, error) {
	var lastErr error
	for _, name := range rt.ring.Replicas(key, rt.ring.Size()) {
		if !rt.isLive(name) {
			continue
		}
		resp, err := rt.directDo(r, name, method, pathAndQuery, body, true)
		if err != nil {
			if r.Context().Err() != nil {
				return "", nil, err // the client gave up, not the shard
			}
			lastErr = err
			continue
		}
		return name, resp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("fleet: no live shard for key %s", key)
	}
	return "", nil, lastErr
}

// directDo performs the request against one named shard (job routes: the id
// says exactly where the job lives, so there is nothing to fail over to),
// marking the shard down on a transport error and up on any answer.
// counted controls whether the request lands in the per-shard distribution
// counters — data-plane proxying does, stats/algos fan-out does not, so
// "proxied" reflects routed client traffic only.
func (rt *Router) directDo(r *http.Request, name, method, pathAndQuery string, body []byte, counted bool) (*http.Response, error) {
	req, err := rt.shardRequest(r.Context(), name, method, pathAndQuery, r.Header, body)
	if err != nil {
		return nil, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		if r.Context().Err() == nil {
			rt.setDown(name, true)
			rt.mu.Lock()
			rt.routeErrors++
			rt.mu.Unlock()
		}
		return nil, err
	}
	rt.setDown(name, false)
	if counted {
		rt.mu.Lock()
		rt.proxied[name]++
		rt.mu.Unlock()
	}
	return resp, nil
}

// relay streams a shard response to the client unchanged.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	writeHeader(w, resp)
	_, _ = io.Copy(w, resp.Body)
}

// writeHeader passes the shard's status and relayHeaders on to the client.
func writeHeader(w http.ResponseWriter, resp *http.Response) {
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
}

// relayRewritten buffers a shard response and, on success, hands it to fn,
// which decodes and rewrites it (job-id qualification). The rewritten value
// goes out through service.WriteJSON, the shards' own writer, so routed and
// direct replies share one wire shape. Errors pass through untouched.
func relayRewritten(w http.ResponseWriter, resp *http.Response, fn func([]byte) (any, bool)) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxGraphPayload))
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, "shard_unreachable", "reading shard response: "+err.Error())
		return
	}
	if resp.StatusCode < 300 {
		if v, ok := fn(data); ok {
			service.WriteJSON(w, resp.StatusCode, v)
			return
		}
	}
	writeHeader(w, resp)
	_, _ = w.Write(data)
}

func writeNoShard(w http.ResponseWriter, err error) {
	service.WriteError(w, http.StatusServiceUnavailable, "shard_unreachable",
		"no shard could serve this request: "+err.Error())
}

// --- routing key computation ---

// payloadDigest keys the routing memo: the raw wire bytes, not the parsed
// content, so it costs one SHA-256 pass instead of a parse.
func payloadDigest(format, payload string) string {
	h := sha256.New()
	io.WriteString(h, format)
	h.Write([]byte{0})
	io.WriteString(h, payload)
	return string(h.Sum(nil))
}

// contentHash computes (or recalls) the content address of a serialized
// graph — the routing key for uploads. The parse here is the router's own
// routing cost, reported as route_parses; shards still parse exactly once
// per stored graph.
func (rt *Router) contentHash(format, payload string) (string, *service.RequestError) {
	digest := payloadDigest(format, payload)
	rt.mu.Lock()
	if hash, ok := rt.digests[digest]; ok {
		rt.routeHits++
		rt.mu.Unlock()
		return hash, nil
	}
	rt.routeParses++
	rt.mu.Unlock()

	g, re := service.ParsePayload(format, payload, nil)
	if re != nil {
		return "", re
	}
	hash := service.GraphHash(g)

	rt.mu.Lock()
	if _, ok := rt.digests[digest]; !ok {
		rt.digests[digest] = hash
		rt.digestOrder = append(rt.digestOrder, digest)
		if len(rt.digestOrder) > digestCacheSize {
			delete(rt.digests, rt.digestOrder[0])
			rt.digestOrder = rt.digestOrder[1:]
		}
	}
	rt.mu.Unlock()
	return hash, nil
}

// readJSON reads the body under a shard's own bound (the router refuses what
// a shard would, rather than buffering an abusive payload to relay a 413),
// decodes it into v and returns it for forwarding, or nil after writing the
// error.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) []byte {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			service.WriteError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", limit))
		} else {
			service.WriteError(w, http.StatusBadRequest, "bad_json", "reading request body: "+err.Error())
		}
		return nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error())
		return nil
	}
	return data
}

// --- handlers ---

// routeUpload sends a graph-carrying request (PUT /v1/graphs or the legacy
// POST /v1/partition) to the shard that owns its graph's content hash. It
// returns that shard's name and response, or a nil response after writing
// the error.
func (rt *Router) routeUpload(w http.ResponseWriter, r *http.Request, method, pathAndQuery string) (string, *http.Response) {
	var req service.GraphPutRequest // both bodies carry format and graph; the shard decodes the rest
	body := readJSON(w, r, service.MaxGraphPayload, &req)
	if body == nil {
		return "", nil
	}
	hash, rerr := rt.contentHash(req.Format, req.Graph)
	if rerr != nil {
		service.WriteError(w, http.StatusBadRequest, rerr.Code, rerr.Message)
		return "", nil
	}
	shard, resp, err := rt.routedDo(r, hash, method, pathAndQuery, body)
	if err != nil {
		writeNoShard(w, err)
		return "", nil
	}
	return shard, resp
}

func (rt *Router) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	if _, resp := rt.routeUpload(w, r, http.MethodPut, "/v1/graphs"); resp != nil {
		relay(w, resp)
	}
}

func (rt *Router) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if re := service.ValidateGraphRef(hash); re != nil {
		service.WriteError(w, http.StatusBadRequest, re.Code, re.Message)
		return
	}
	_, resp, err := rt.routedDo(r, hash, http.MethodGet, withQuery("/v1/graphs/"+hash, r), nil)
	if err != nil {
		writeNoShard(w, err)
		return
	}
	relay(w, resp)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	body := readJSON(w, r, service.MaxControlPayload, &req)
	if body == nil {
		return
	}
	if re := service.ValidateGraphRef(req.Graph); re != nil {
		service.WriteError(w, http.StatusBadRequest, re.Code, re.Message)
		return
	}
	shard, resp, err := rt.routedDo(r, req.Graph, http.MethodPost, withQuery("/v1/jobs", r), body)
	if err != nil {
		writeNoShard(w, err)
		return
	}
	relayRewritten(w, resp, func(data []byte) (any, bool) {
		var br service.BatchResponse
		if json.Unmarshal(data, &br) != nil {
			return nil, false
		}
		for i := range br.Jobs {
			br.Jobs[i].ID = shard + "/" + br.Jobs[i].ID
		}
		return br, true
	})
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	shard, id := r.PathValue("shard"), r.PathValue("id")
	if !rt.ring.Has(shard) {
		service.WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("job id names unknown shard %q (fleet job ids look like shard/localid)", shard))
		return
	}
	resp, err := rt.directDo(r, shard, r.Method, withQuery("/v1/jobs/"+id, r), nil, true)
	if err != nil {
		service.WriteError(w, http.StatusServiceUnavailable, "shard_unreachable",
			fmt.Sprintf("shard %s (owner of job %s/%s) is unreachable: %v", shard, shard, id, err))
		return
	}
	relayRewritten(w, resp, qualifyJob(shard))
}

func (rt *Router) handleUnqualifiedJob(w http.ResponseWriter, r *http.Request) {
	service.WriteError(w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no job %q: fleet job ids are shard-qualified (shard/localid, as returned by POST /v1/jobs)", r.PathValue("id")))
}

func (rt *Router) handlePartition(w http.ResponseWriter, r *http.Request) {
	if shard, resp := rt.routeUpload(w, r, http.MethodPost, withQuery("/v1/partition", r)); resp != nil {
		relayRewritten(w, resp, qualifyJob(shard))
	}
}

// withQuery appends r's raw query, if any, to a shard path.
func withQuery(path string, r *http.Request) string {
	if r.URL.RawQuery == "" {
		return path
	}
	return path + "?" + r.URL.RawQuery
}

// qualifyJob is the relayRewritten rewrite of a JobInfo response: it
// prefixes the job id with the shard that owns it.
func qualifyJob(shard string) func([]byte) (any, bool) {
	return func(data []byte) (any, bool) {
		var info service.JobInfo
		if json.Unmarshal(data, &info) != nil || info.ID == "" {
			return nil, false
		}
		info.ID = shard + "/" + info.ID
		return info, true
	}
}

// --- aggregation ---

// fanOut performs one GET against every live shard concurrently, returning
// the decoded bodies by shard name.
func fanOut[T any](rt *Router, r *http.Request, path string) map[string]T {
	out := make(map[string]T)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range rt.ring.Members() {
		if !rt.isLive(name) {
			continue
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, err := rt.directDo(r, name, http.MethodGet, path, nil, false)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			// Read on to EOF, up to a bound, before Close so the Transport
			// keeps the connection: the decoder stops at the end of its
			// value, before a chunked body's terminator, and closing an
			// unfinished body drops the connection.
			defer io.CopyN(io.Discard, resp.Body, 64<<10)
			if resp.StatusCode != http.StatusOK {
				return
			}
			var v T
			if json.NewDecoder(resp.Body).Decode(&v) != nil {
				return
			}
			mu.Lock()
			out[name] = v
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	return out
}

// handleAlgos serves the intersection of the live shards' registries: an
// algorithm is advertised only if every reachable shard supports it, so a
// mixed-version fleet never advertises work some member cannot do.
func (rt *Router) handleAlgos(w http.ResponseWriter, r *http.Request) {
	perShard := fanOut[service.AlgosResponse](rt, r, "/v1/algos")
	if len(perShard) == 0 {
		service.WriteError(w, http.StatusServiceUnavailable, "shard_unreachable", "no live shard answered /v1/algos")
		return
	}
	counts := make(map[string]int)
	var first *service.AlgosResponse
	for name := range perShard {
		resp := perShard[name]
		if first == nil {
			first = &resp
		}
		for _, a := range resp.Algos {
			counts[a.Name]++
		}
	}
	out := service.AlgosResponse{API: service.APIVersion}
	for _, a := range first.Algos {
		if counts[a.Name] == len(perShard) {
			out.Algos = append(out.Algos, a)
		}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// ShardStatus is one shard's row in the fleet stats block.
type ShardStatus struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Up      bool   `json:"up"`
	Proxied uint64 `json:"proxied"` // data-plane requests this router sent it
}

// RouterStats are the router's own counters.
type RouterStats struct {
	RouteParses    uint64 `json:"route_parses"`     // uploads parsed to learn their routing key
	RouteCacheHits uint64 `json:"route_cache_hits"` // uploads whose key the digest memo recalled
	RouteErrors    uint64 `json:"route_errors"`     // transport failures while proxying
}

// FleetBlock is the fleet-specific extension of the aggregated stats.
type FleetBlock struct {
	Shards []ShardStatus `json:"shards"`
	Router RouterStats   `json:"router"`
	// ShardStats holds each live shard's raw /v1/stats, keyed by name, so
	// the aggregate sums are auditable from one response.
	ShardStats map[string]service.StatsResponse `json:"shard_stats"`
}

// StatsResponse is the router's GET /v1/stats: the shard counters summed
// (embedded, so a typed single-daemon client decodes the aggregate
// unchanged) plus the per-shard breakdown.
type StatsResponse struct {
	service.StatsResponse
	Fleet FleetBlock `json:"fleet"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	perShard := fanOut[service.StatsResponse](rt, r, "/v1/stats")

	var agg service.StatsResponse
	agg.Version = service.APIVersion
	for _, st := range perShard {
		agg.Workers += st.Workers
		agg.JobsSubmitted += st.JobsSubmitted
		agg.JobsQueued += st.JobsQueued
		agg.JobsRunning += st.JobsRunning
		agg.JobsDone += st.JobsDone
		agg.JobsFailed += st.JobsFailed
		agg.JobsCancelled += st.JobsCancelled
		agg.CacheHits += st.CacheHits
		agg.Coalesced += st.Coalesced
		agg.CacheMisses += st.CacheMisses
		agg.CacheEvictions += st.CacheEvictions
		agg.CacheEntries += st.CacheEntries
		agg.CacheBytes += st.CacheBytes
		agg.CacheCapacityBytes += st.CacheCapacityBytes
		agg.Store.Graphs += st.Store.Graphs
		agg.Store.Bytes += st.Store.Bytes
		agg.Store.CapacityBytes += st.Store.CapacityBytes
		agg.Store.Puts += st.Store.Puts
		agg.Store.Dedups += st.Store.Dedups
		agg.Store.Parses += st.Store.Parses
		agg.Store.Hashes += st.Store.Hashes
		agg.Store.Gets += st.Store.Gets
		agg.Store.Misses += st.Store.Misses
		agg.Store.Evictions += st.Store.Evictions
	}

	rt.mu.Lock()
	block := FleetBlock{
		Router: RouterStats{
			RouteParses:    rt.routeParses,
			RouteCacheHits: rt.routeHits,
			RouteErrors:    rt.routeErrors,
		},
		ShardStats: perShard,
	}
	for _, name := range rt.ring.Members() {
		block.Shards = append(block.Shards, ShardStatus{
			Name:    name,
			Addr:    rt.addrs[name],
			Up:      !rt.down[name],
			Proxied: rt.proxied[name],
		})
	}
	rt.mu.Unlock()

	service.WriteJSON(w, http.StatusOK, StatsResponse{StatsResponse: agg, Fleet: block})
}

// Owner exposes the routing decision for a key (diagnostics, tests).
func (rt *Router) Owner(key string) string { return rt.ring.Owner(key) }
