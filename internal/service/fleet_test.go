package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/service"
)

// --- peer transfer codec ---

// Peer fetch moves stored graphs in the native text format, so the format
// must be hash-faithful: what a shard decodes must re-hash to the address
// it asked for.
func TestGraphTextRoundTripHashIdentity(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Mesh(500, 23),                        // coordinates present
		gen.SkewWeights(gen.Mesh(300, 5), 7, 10), // non-uniform weights
		gen.Grid(8, 9),
		gen.PowerLaw(3000, 3, 1), // no coordinates
		gen.Grid(300, 300),       // larger than the writer's 1 MiB buffer
	} {
		var buf bytes.Buffer
		if err := gio.WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := gio.ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := service.GraphHash(back), service.GraphHash(g); got != want {
			t.Fatalf("round trip changed content hash: %s -> %s", want, got)
		}
	}
}

// A text upload is untrusted: a header claiming 2^24 nodes over a 17-byte
// body is a bad_graph, refused without allocating for the claim, and
// nothing is stored.
func TestPutTextHugeHeaderRefused(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1})
	status, data := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs",
		map[string]any{"format": "text", "graph": "graph 16777216 0\n"})
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_graph" {
		t.Fatalf("status %d: %s", status, data)
	}
	if st := getStats(t, ts.URL); st.Store.Graphs != 0 {
		t.Fatalf("store holds %d graphs after a refused upload", st.Store.Graphs)
	}
}

// --- auth ---

func authedJSON(t *testing.T, token, method, url string, hdr map[string]string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func TestAuthRequiredAndHealthzExempt(t *testing.T) {
	auth, err := service.NewAuth(map[string]string{"tok-alice": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1}, service.WithAuth(auth))

	// No token and a wrong token are both structured 401s.
	for _, tok := range []string{"", "tok-wrong"} {
		status, data := authedJSON(t, tok, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
		if status != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d, want 401: %s", tok, status, data)
		}
		if code := decodeErrorCode(t, data); code != "unauthorized" {
			t.Fatalf("token %q: error code %q", tok, code)
		}
	}

	// The right token works.
	if status, data := authedJSON(t, "tok-alice", http.MethodGet, ts.URL+"/v1/stats", nil, nil); status != http.StatusOK {
		t.Fatalf("authenticated stats: status %d: %s", status, data)
	}

	// Health stays open: the router probes it without credentials.
	if status, _ := authedJSON(t, "", http.MethodGet, ts.URL+"/v1/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz with no token: status %d", status)
	}
}

// With auth on, quota identity comes from the token: a client cannot dodge
// its bucket by claiming a different X-Client.
func TestAuthBindsQuotaIdentity(t *testing.T) {
	auth, err := service.NewAuth(map[string]string{"tok-alice": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 2 with a negligible refill: the third mutating request loses.
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1},
		service.WithAuth(auth), service.WithQuota(service.NewQuota(0.001, 2)))

	body := map[string]any{"format": "metis", "graph": metisPayload(t, 60)}
	lie := map[string]string{"X-Client": "bob"} // ignored: identity follows the token
	for i := 0; i < 2; i++ {
		if status, data := authedJSON(t, "tok-alice", http.MethodPut, ts.URL+"/v1/graphs", lie, body); status >= 300 {
			t.Fatalf("request %d: status %d: %s", i, status, data)
		}
	}
	status, data := authedJSON(t, "tok-alice", http.MethodPut, ts.URL+"/v1/graphs", lie, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429: %s", status, data)
	}
	st := getStatsAuthed(t, ts.URL, "tok-alice")
	if st.Quota == nil {
		t.Fatal("stats carry no quota block")
	}
	if _, ok := st.Quota.Clients["bob"]; ok {
		t.Fatal("quota accounted the self-reported X-Client, not the token identity")
	}
	if c, ok := st.Quota.Clients["alice"]; !ok || c.Throttled == 0 {
		t.Fatalf("quota for alice: %+v (ok=%v), want throttled > 0", c, ok)
	}
}

func getStatsAuthed(t *testing.T, url, token string) service.StatsResponse {
	t.Helper()
	status, data := authedJSON(t, token, http.MethodGet, url+"/v1/stats", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("stats status %d: %s", status, data)
	}
	var s service.StatsResponse
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadAuthFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tokens")
	content := "# fleet tokens\n\ntok-alice alice\n  tok-bob\tbob\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	a, err := service.LoadAuthFile(path)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("Authorization", "Bearer tok-bob")
	if name, ok := a.Identify(req); !ok || name != "bob" {
		t.Fatalf("Identify = %q, %v", name, ok)
	}
	for name, bad := range map[string]string{
		"three fields": "tok alice extra\n",
		"dup token":    "tok alice\ntok bob\n",
		"empty":        "# nothing here\n",
	} {
		if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := service.LoadAuthFile(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// --- peer fetch ---

func hostPort(t *testing.T, tsURL string) string {
	t.Helper()
	return strings.TrimPrefix(tsURL, "http://")
}

// Shard B receives a job for a graph only shard A holds. With a PeerFetcher
// configured, B pulls the graph from A (over A's authenticated surface),
// stores it, and completes the job — the lazy rebalance, end to end.
func TestPeerFetchCompletesForeignJob(t *testing.T) {
	auth, err := service.NewAuth(map[string]string{"tok-fleet": "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	tsA, _ := newTestServerOpts(t, service.Config{Workers: 1}, service.WithAuth(auth))

	payload := metisPayload(t, 120)
	status, data := authedJSON(t, "tok-fleet", http.MethodPut, tsA.URL+"/v1/graphs", nil,
		map[string]any{"format": "metis", "graph": payload})
	if status != http.StatusCreated {
		t.Fatalf("upload to A: status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}

	members := []ring.Member{
		{Name: "a", Addr: hostPort(t, tsA.URL)},
		{Name: "b", Addr: "127.0.0.1:1"}, // self: never dialed
	}
	peers, err := service.NewPeerFetcher(members, "b", "tok-fleet")
	if err != nil {
		t.Fatal(err)
	}
	tsB, _ := newTestServerOpts(t, service.Config{Workers: 1}, service.WithPeers(peers))

	status, data = doJSON(t, http.MethodPost, tsB.URL+"/v1/jobs?wait=1", service.BatchRequest{
		Graph: put.Hash,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
	})
	if status != http.StatusOK {
		t.Fatalf("job on B for A's graph: status %d: %s", status, data)
	}
	var batch service.BatchResponse
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 1 || batch.Jobs[0].State != service.StateDone {
		t.Fatalf("job did not complete: %s", data)
	}

	// B now holds the graph (stats prove the pull), so a second job is local.
	st := getStats(t, tsB.URL)
	if st.Peer == nil || st.Peer.Fetches != 1 {
		t.Fatalf("peer stats after fetch: %+v", st.Peer)
	}
	if st.Store.Graphs != 1 {
		t.Fatalf("B stores %d graphs, want 1", st.Store.Graphs)
	}
	status, data = doJSON(t, http.MethodPost, tsB.URL+"/v1/jobs?wait=1", service.BatchRequest{
		Graph: put.Hash,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2, Seed: 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("second job on B: status %d: %s", status, data)
	}
	if st := getStats(t, tsB.URL); st.Peer.Fetches != 1 {
		t.Fatalf("second job refetched: %+v", st.Peer)
	}
}

// A peer that serves the wrong bytes must be refused by the hash check, and
// the job must fail graph_not_found rather than run on the wrong graph.
func TestPeerFetchRejectsHashMismatch(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = gio.WriteText(w, gen.Grid(3, 3)) // not the requested graph
	}))
	t.Cleanup(evil.Close)

	members := []ring.Member{
		{Name: "a", Addr: hostPort(t, evil.URL)},
		{Name: "b", Addr: "127.0.0.1:1"},
	}
	peers, err := service.NewPeerFetcher(members, "b", "")
	if err != nil {
		t.Fatal(err)
	}
	tsB, _ := newTestServerOpts(t, service.Config{Workers: 1}, service.WithPeers(peers))

	wanted := service.GraphHash(gen.Mesh(80, 3))
	status, data := doJSON(t, http.MethodPost, tsB.URL+"/v1/jobs", service.BatchRequest{
		Graph: wanted,
		Specs: []service.JobSpec{{Algo: "kl", Parts: 2}},
	})
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", status, data)
	}
	if code := decodeErrorCode(t, data); code != "graph_not_found" {
		t.Fatalf("error code %q", code)
	}
	if st := getStats(t, tsB.URL); st.Store.Graphs != 0 {
		t.Fatal("mismatched graph was stored")
	}
}

// GET /v1/graphs/{hash}?export=text round-trips through the real endpoint;
// the retired binary export is an unknown name.
func TestGraphExportTextEndpoint(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1})
	var text bytes.Buffer
	if err := gio.WriteText(&text, gen.Mesh(90, 4)); err != nil { // coordinates: only text keeps them
		t.Fatal(err)
	}
	status, data := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs",
		map[string]any{"format": "text", "graph": text.String()})
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/" + put.Hash + "?export=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if h := resp.Header.Get("X-Graph-Hash"); h != put.Hash {
		t.Fatalf("X-Graph-Hash %q, want %q", h, put.Hash)
	}
	g, err := gio.ReadText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := service.GraphHash(g); got != put.Hash {
		t.Fatalf("exported graph hashes to %s, want %s", got, put.Hash)
	}
	// Unknown export names, the retired "bin" among them, are a structured
	// 400.
	for _, name := range []string{"bin", "tar"} {
		status, data = doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+put.Hash+"?export="+name, nil)
		if status != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_export" {
			t.Fatalf("export=%s: status %d: %s", name, status, data)
		}
	}
}
