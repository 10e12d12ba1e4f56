package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/ring"
	"repro/internal/service"
)

// testShard is one in-process partd shard with direct access to its store
// and engine counters — what the sticky-routing e2e asserts against.
type testShard struct {
	name  string
	ts    *httptest.Server
	store *service.GraphStore
	eng   *service.Engine
}

func (s *testShard) addr() string { return strings.TrimPrefix(s.ts.URL, "http://") }

// bootFleet starts n shards and a router over them. With peers, each shard
// is wired for peer-fetch across the same membership the router routes by.
func bootFleet(t *testing.T, n int, withPeers bool) (*fleet.Router, *httptest.Server, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	handlers := make([]http.Handler, n)
	for i := range shards {
		i := i
		// Indirection: the handler is installed after every shard's address
		// is known, so peer fetchers can name the full membership.
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		shards[i] = &testShard{name: fmt.Sprintf("s%d", i+1), ts: ts}
		t.Cleanup(ts.Close)
	}
	members := make([]ring.Member, n)
	for i, s := range shards {
		members[i] = ring.Member{Name: s.name, Addr: s.addr()}
	}
	for i, s := range shards {
		s.eng = service.New(service.Config{Workers: 1})
		s.store = service.NewGraphStore(0)
		t.Cleanup(s.eng.Close)
		opts := []service.HandlerOption{service.WithStore(s.store)}
		if withPeers {
			peers, err := service.NewPeerFetcher(members, s.name, "")
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, service.WithPeers(peers))
		}
		handlers[i] = service.NewHandler(s.eng, opts...)
	}
	rt, err := fleet.New(fleet.Config{Members: members, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	return rt, router, shards
}

func meshPayload(t *testing.T, n int, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, gen.Mesh(n, seed)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeErrorCode(t *testing.T, data []byte) string {
	t.Helper()
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, data)
	}
	return body.Error.Code
}

func fleetStats(t *testing.T, routerURL string) fleet.StatsResponse {
	t.Helper()
	status, data := doJSON(t, http.MethodGet, routerURL+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats status %d: %s", status, data)
	}
	var st fleet.StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance e2e: one upload and N job submissions for the same hash all
// land on one shard — exactly one store holds the graph, and the fleet as a
// whole performed exactly 1 parse and 1 content hash. The router resolved
// the routing key with its own single parse, memoized thereafter.
func TestStickyRoutingUploadOnce(t *testing.T) {
	_, router, shards := bootFleet(t, 3, false)
	payload := meshPayload(t, 150, 42)

	status, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: payload})
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		status, data := doJSON(t, http.MethodPost, router.URL+"/v1/jobs?wait=1", service.BatchRequest{
			Graph: put.Hash,
			Specs: []service.JobSpec{{Algo: "kl", Parts: 2, Seed: int64(i)}},
		})
		if status != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, status, data)
		}
	}

	holders, parses, hashes := 0, uint64(0), uint64(0)
	for _, s := range shards {
		st := s.store.Stats()
		if st.Graphs > 0 {
			holders++
			if st.Graphs != 1 {
				t.Fatalf("shard %s holds %d graphs, want 1", s.name, st.Graphs)
			}
		}
		parses += st.Parses
		hashes += st.Hashes
	}
	if holders != 1 {
		t.Fatalf("%d shards hold the graph, want exactly 1", holders)
	}
	if parses != 1 || hashes != 1 {
		t.Fatalf("fleet-wide %d parses and %d hashes, want exactly 1 and 1", parses, hashes)
	}

	// A second identical upload routes by the digest memo: no new parse
	// anywhere, dedup on the owning shard.
	status, data = doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: payload})
	if status != http.StatusOK {
		t.Fatalf("re-upload: status %d: %s", status, data)
	}
	st := fleetStats(t, router.URL)
	if st.Fleet.Router.RouteParses != 1 {
		t.Fatalf("router parsed %d times, want 1 (memo miss only)", st.Fleet.Router.RouteParses)
	}
	if st.Fleet.Router.RouteCacheHits != 1 {
		t.Fatalf("router memo hits %d, want 1", st.Fleet.Router.RouteCacheHits)
	}
}

// A text upload whose header claims 2^24 nodes over a 17-byte body is a
// bad_graph at the router as at a shard: the router's routing parse refuses
// it without allocating for the claim, and no shard stores anything.
func TestRouterRefusesHugeTextHeader(t *testing.T) {
	_, router, shards := bootFleet(t, 2, false)
	status, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "text", Graph: "graph 16777216 0\n"})
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_graph" {
		t.Fatalf("status %d: %s", status, data)
	}
	for _, s := range shards {
		if st := s.store.Stats(); st.Graphs != 0 || st.Parses != 0 {
			t.Fatalf("shard %s: %d graphs, %d parses after a refused upload", s.name, st.Graphs, st.Parses)
		}
	}
}

// Job ids are shard-qualified end to end: submit, poll (wait), cancel.
func TestJobRoutingAndCancel(t *testing.T) {
	_, router, _ := bootFleet(t, 3, false)
	payload := meshPayload(t, 100, 7)

	_, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: payload})
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}
	status, data := doJSON(t, http.MethodPost, router.URL+"/v1/jobs", service.BatchRequest{
		Graph: put.Hash,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, data)
	}
	var batch service.BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	id := batch.Jobs[0].ID
	if !strings.Contains(id, "/") {
		t.Fatalf("job id %q is not shard-qualified", id)
	}

	status, data = doJSON(t, http.MethodGet, router.URL+"/v1/jobs/"+id+"?wait=1", nil)
	if status != http.StatusOK {
		t.Fatalf("wait: status %d: %s", status, data)
	}
	var info service.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != id {
		t.Fatalf("polled job id %q, want %q", info.ID, id)
	}
	if info.State != service.StateDone {
		t.Fatalf("job state %q", info.State)
	}

	// Cancelling a finished job is a 409 relayed intact through the router.
	status, data = doJSON(t, http.MethodDelete, router.URL+"/v1/jobs/"+id, nil)
	if status != http.StatusConflict || decodeErrorCode(t, data) != "job_finished" {
		t.Fatalf("cancel finished: status %d: %s", status, data)
	}

	// Unqualified and unknown-shard ids are structured 404s from the router.
	for _, bad := range []string{"j0001", "nope/j0001"} {
		status, data = doJSON(t, http.MethodGet, router.URL+"/v1/jobs/"+bad, nil)
		if status != http.StatusNotFound || decodeErrorCode(t, data) != "not_found" {
			t.Fatalf("job %q: status %d: %s", bad, status, data)
		}
	}
}

// With one of three shards stopped, every request for a survivor-owned graph
// still succeeds (zero 5xx), dead-owned graphs fail with a clean 404, and
// re-uploading a dead-owned graph re-homes it on a live replica.
func TestFailoverRoutesAroundDeadShard(t *testing.T) {
	rt, router, shards := bootFleet(t, 3, true)

	type stored struct {
		hash    string
		payload string
		owner   string
	}
	var graphs []stored
	for seed := int64(0); seed < 12; seed++ {
		payload := meshPayload(t, 80+int(seed), seed)
		status, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
			service.GraphPutRequest{Format: "metis", Graph: payload})
		if status != http.StatusCreated {
			t.Fatalf("upload %d: status %d: %s", seed, status, data)
		}
		var put service.GraphPutResponse
		if err := json.Unmarshal(data, &put); err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, stored{hash: put.Hash, payload: payload, owner: rt.Owner(put.Hash)})
	}
	owners := map[string]int{}
	for _, g := range graphs {
		owners[g.owner]++
	}
	if len(owners) != 3 {
		t.Fatalf("12 graphs landed on only %d shards: %v (ring badly skewed)", len(owners), owners)
	}

	victim := shards[0]
	victim.ts.Close()

	var deadOwned *stored
	for i := range graphs {
		g := &graphs[i]
		status, data := doJSON(t, http.MethodPost, router.URL+"/v1/jobs?wait=1", service.BatchRequest{
			Graph: g.hash,
			Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
		})
		if status >= 500 {
			t.Fatalf("graph %s (owner %s): 5xx through router with %s down: %d %s",
				g.hash, g.owner, victim.name, status, data)
		}
		if g.owner == victim.name {
			deadOwned = g
			// The replica cannot peer-fetch from a dead owner: clean miss.
			if status != http.StatusNotFound || decodeErrorCode(t, data) != "graph_not_found" {
				t.Fatalf("dead-owned graph: status %d: %s", status, data)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("survivor-owned graph %s: status %d: %s", g.hash, status, data)
		}
	}

	// Recovery path: re-upload the dead-owned graph through the router; it
	// re-homes on the next live replica and jobs succeed again.
	status, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: deadOwned.payload})
	if status != http.StatusCreated {
		t.Fatalf("re-home upload: status %d: %s", status, data)
	}
	status, data = doJSON(t, http.MethodPost, router.URL+"/v1/jobs?wait=1", service.BatchRequest{
		Graph: deadOwned.hash,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
	})
	if status != http.StatusOK {
		t.Fatalf("job after re-home: status %d: %s", status, data)
	}

	// The fleet stats show the victim down and the survivors carrying load.
	st := fleetStats(t, router.URL)
	for _, s := range st.Fleet.Shards {
		if s.Name == victim.name {
			if s.Up {
				t.Fatalf("victim %s still marked up", s.Name)
			}
		} else if s.Proxied == 0 {
			t.Fatalf("survivor %s served no requests: %+v", s.Name, st.Fleet.Shards)
		}
	}
}

// Peer-fetch across the fleet: a graph uploaded when the fleet had fewer
// members is pulled to its new owner on first use (lazy rebalancing).
func TestPeerFetchAfterMembershipGrowth(t *testing.T) {
	// Fleet of 3 with peers; upload directly to a NON-owner shard to
	// simulate a key placed under an older membership.
	rt, router, shards := bootFleet(t, 3, true)
	payload := meshPayload(t, 90, 11)

	// The stored hash is the hash of the *parsed* payload (METIS drops
	// coordinates), so compute it the way a shard would.
	g, err := gio.ReadGraph(gio.FormatMETIS, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hash := service.GraphHash(g)
	var wrongShard *testShard
	for _, s := range shards {
		if s.name != rt.Owner(hash) {
			wrongShard = s
			break
		}
	}
	status, data := doJSON(t, http.MethodPut, wrongShard.ts.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: payload})
	if status != http.StatusCreated {
		t.Fatalf("direct upload: status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}
	if put.Hash != hash {
		t.Fatalf("stored hash %s, computed %s", put.Hash, hash)
	}

	// A job through the router routes to the ring owner, which does not hold
	// the graph — peer-fetch pulls it over.
	status, data = doJSON(t, http.MethodPost, router.URL+"/v1/jobs?wait=1", service.BatchRequest{
		Graph: hash,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
	})
	if status != http.StatusOK {
		t.Fatalf("routed job: status %d: %s", status, data)
	}
	st := fleetStats(t, router.URL)
	var fetches uint64
	for _, shard := range st.Fleet.ShardStats {
		if shard.Peer != nil {
			fetches += shard.Peer.Fetches
		}
	}
	if fetches != 1 {
		t.Fatalf("fleet peer fetches = %d, want 1", fetches)
	}
}

// The aggregate stats are the sum of the per-shard stats in one response.
func TestStatsAggregationSums(t *testing.T) {
	_, router, _ := bootFleet(t, 3, false)
	for seed := int64(0); seed < 4; seed++ {
		payload := meshPayload(t, 70+int(seed), seed)
		_, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
			service.GraphPutRequest{Format: "metis", Graph: payload})
		var put service.GraphPutResponse
		if err := json.Unmarshal(data, &put); err != nil {
			t.Fatal(err)
		}
		if status, data := doJSON(t, http.MethodPost, router.URL+"/v1/jobs?wait=1", service.BatchRequest{
			Graph: put.Hash,
			Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
		}); status != http.StatusOK {
			t.Fatalf("job: status %d: %s", status, data)
		}
	}
	st := fleetStats(t, router.URL)
	if len(st.Fleet.ShardStats) != 3 {
		t.Fatalf("shard_stats has %d entries, want 3", len(st.Fleet.ShardStats))
	}
	var submitted, parses uint64
	var graphs int
	for _, shard := range st.Fleet.ShardStats {
		submitted += shard.JobsSubmitted
		parses += shard.Store.Parses
		graphs += shard.Store.Graphs
	}
	if st.JobsSubmitted != submitted || submitted != 4 {
		t.Fatalf("aggregate jobs_submitted %d, shard sum %d, want 4", st.JobsSubmitted, submitted)
	}
	if st.Store.Parses != parses || parses != 4 {
		t.Fatalf("aggregate parses %d, shard sum %d, want 4", st.Store.Parses, parses)
	}
	if st.Store.Graphs != graphs || graphs != 4 {
		t.Fatalf("aggregate graphs %d, shard sum %d, want 4", st.Store.Graphs, graphs)
	}
}

// The router's /v1/algos is the intersection across live shards — with a
// homogeneous fleet, exactly one shard's registry.
func TestAlgosIntersection(t *testing.T) {
	_, router, shards := bootFleet(t, 3, false)
	status, data := doJSON(t, http.MethodGet, router.URL+"/v1/algos", nil)
	if status != http.StatusOK {
		t.Fatalf("algos: status %d: %s", status, data)
	}
	var routed service.AlgosResponse
	if err := json.Unmarshal(data, &routed); err != nil {
		t.Fatal(err)
	}
	_, data = doJSON(t, http.MethodGet, shards[0].ts.URL+"/v1/algos", nil)
	var direct service.AlgosResponse
	if err := json.Unmarshal(data, &direct); err != nil {
		t.Fatal(err)
	}
	if len(routed.Algos) == 0 || len(routed.Algos) != len(direct.Algos) {
		t.Fatalf("routed %d algos, direct %d", len(routed.Algos), len(direct.Algos))
	}
}

// The router relays shard auth verbatim: no token is a 401 end to end, and a
// client token passes through to the shard.
func TestRouterRelaysAuth(t *testing.T) {
	auth, err := service.NewAuth(map[string]string{"tok-c": "carol"})
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Workers: 1})
	t.Cleanup(eng.Close)
	shard := httptest.NewServer(service.NewHandler(eng, service.WithAuth(auth)))
	t.Cleanup(shard.Close)

	rt, err := fleet.New(fleet.Config{
		Members:        []ring.Member{{Name: "s1", Addr: strings.TrimPrefix(shard.URL, "http://")}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	payload := meshPayload(t, 60, 3)
	status, data := doJSON(t, http.MethodPut, router.URL+"/v1/graphs",
		service.GraphPutRequest{Format: "metis", Graph: payload})
	if status != http.StatusUnauthorized || decodeErrorCode(t, data) != "unauthorized" {
		t.Fatalf("unauthenticated through router: status %d: %s", status, data)
	}

	req, _ := http.NewRequest(http.MethodPut, router.URL+"/v1/graphs",
		bytes.NewReader(mustJSON(t, service.GraphPutRequest{Format: "metis", Graph: payload})))
	req.Header.Set("Authorization", "Bearer tok-c")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("authenticated through router: status %d: %s", resp.StatusCode, body)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
