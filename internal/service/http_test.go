package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/service"
)

// newTestServer boots the full HTTP stack over a real engine, as partd does.
func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Engine) {
	t.Helper()
	e := service.New(cfg)
	ts := httptest.NewServer(service.NewHandler(e))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func metisPayload(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, gen.Mesh(n, 23)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postPartition(t *testing.T, url string, req service.PartitionRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/partition", "application/json", bytes.NewReader(body))
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

func decodeJob(t *testing.T, data []byte) service.JobInfo {
	t.Helper()
	var info service.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, data)
	}
	return info
}

func decodeErrorCode(t *testing.T, data []byte) string {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, data)
	}
	return body.Error.Code
}

func TestHTTPSubmitWaitAndPoll(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	payload := metisPayload(t, 300)

	// Synchronous submission.
	status, data := postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "multilevel-kl", Parts: 4, Seed: 1994},
		Graph:   payload,
		Wait:    true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	info := decodeJob(t, data)
	if info.State != service.StateDone || len(info.Result.Assign) != 300 {
		t.Fatalf("job %+v", info)
	}
	if info.Result.Balance <= 0 || info.Result.Cut <= 0 {
		t.Errorf("suspicious metrics: %+v", info.Result)
	}

	// Asynchronous submission + ?wait=1 poll.
	status, data = postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "multilevel-kl", Parts: 4, Seed: 7},
		Graph:   payload,
	})
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("async status %d: %s", status, data)
	}
	id := decodeJob(t, data).ID
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d: %s", resp.StatusCode, data)
	}
	if got := decodeJob(t, data); got.State != service.StateDone {
		t.Fatalf("polled job %+v", got)
	}

	// Unknown job id is a structured 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || decodeErrorCode(t, data) != "not_found" {
		t.Fatalf("unknown job: status %d body %s", resp.StatusCode, data)
	}
}

// The acceptance scenario: N concurrent identical requests produce one
// computation and N-1 cache/coalesce hits, every response carrying the
// bit-identical partition.
func TestHTTPConcurrentIdenticalRequests(t *testing.T) {
	const n = 8
	ts, e := newTestServer(t, service.Config{Workers: 2})
	payload := metisPayload(t, 400)
	req := service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "multilevel-fm", Parts: 8, Seed: 3},
		Graph:   payload,
		Wait:    true,
	}

	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postPartition(t, ts.URL, req)
		}(i)
	}
	wg.Wait()

	computed := 0
	var ref []uint16
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		info := decodeJob(t, bodies[i])
		if info.State != service.StateDone {
			t.Fatalf("request %d: %+v", i, info)
		}
		if !info.Cached {
			computed++
		}
		if ref == nil {
			ref = info.Result.Assign
			continue
		}
		if len(info.Result.Assign) != len(ref) {
			t.Fatalf("request %d: assign length %d != %d", i, len(info.Result.Assign), len(ref))
		}
		for v := range ref {
			if info.Result.Assign[v] != ref[v] {
				t.Fatalf("request %d: partition differs at node %d", i, v)
			}
		}
	}
	if computed != 1 {
		t.Errorf("%d of %d responses computed; want exactly 1 (rest cached)", computed, n)
	}
	s := e.Stats()
	if s.CacheMisses != 1 || s.CacheHits+s.Coalesced != n-1 {
		t.Errorf("stats %+v; want 1 miss, %d hits+coalesced", s, n-1)
	}
}

func TestHTTPConstraintViolationsAreStructured4xx(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	payload := metisPayload(t, 100)
	cases := []struct {
		name string
		req  service.PartitionRequest
		code string
	}{
		{"unknown algo", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "nope", Parts: 4}, Graph: payload}, "unknown_algo"},
		{"zero parts", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 0}, Graph: payload}, "bad_parts"},
		{"parts exceed nodes", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 101}, Graph: payload}, "bad_parts"},
		{"coords needed", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "ibp", Parts: 4}, Graph: payload}, "needs_coords"},
		{"non power of two", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "rsb", Parts: 3}, Graph: payload}, "parts_not_power_of_two"},
		{"bad objective", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 4, Objective: "median"}, Graph: payload}, "bad_objective"},
		{"bad format", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 4}, Graph: payload, Format: "xml"}, "bad_format"},
		{"empty graph", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 4}}, "bad_graph"},
		{"malformed metis", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 4}, Graph: "3 9\n2\n1\n\n"}, "bad_graph"},
		{"malformed edgelist", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 2}, Format: "edgelist", Graph: "0 0\n"}, "bad_graph"},
		{"islands not a power of two", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "dknux", Parts: 2, Islands: 3}, Graph: payload}, "bad_islands"},
		{"huge population", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "dknux", Parts: 2, PopSize: 100000000}, Graph: payload}, "bad_pop_size"},
		{"islands too small", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "dknux", Parts: 2, PopSize: 8, Islands: 4}, Graph: payload}, "bad_pop_size"},
		{"coarse islands not a power of two", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "multilevel-ga", Parts: 2, Islands: 3}, Graph: payload}, "bad_islands"},
		{"huge coarse population", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "multilevel-ga", Parts: 2, PopSize: 100000000}, Graph: payload}, "bad_pop_size"},
		{"coarse islands too small", service.PartitionRequest{JobSpec: service.JobSpec{Algo: "multilevel-ga", Parts: 2, PopSize: 8}, Graph: payload}, "bad_pop_size"},
	}
	for _, c := range cases {
		status, data := postPartition(t, ts.URL, c.req)
		if status < 400 || status >= 500 {
			t.Errorf("%s: status %d, want 4xx: %s", c.name, status, data)
			continue
		}
		if got := decodeErrorCode(t, data); got != c.code {
			t.Errorf("%s: code %q, want %q (%s)", c.name, got, c.code, data)
		}
	}
	// GA specs that leave pop_size and islands at their defaults still run.
	for _, name := range []string{"dknux", "multilevel-ga"} {
		req := service.PartitionRequest{JobSpec: service.JobSpec{Algo: name, Parts: 2, Generations: 2}, Graph: payload, Wait: true}
		if status, data := postPartition(t, ts.URL, req); status != http.StatusOK || decodeJob(t, data).State != service.StateDone {
			t.Errorf("default %s spec: status %d: %s", name, status, data)
		}
	}
}

func TestHTTPMalformedJSON(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_json" {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
}

func TestHTTPAlgosReflectsRegistry(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/algos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body service.AlgosResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.API != service.APIVersion {
		t.Fatalf("api = %q, want %q", body.API, service.APIVersion)
	}
	byName := map[string]service.AlgoInfo{}
	for _, a := range body.Algos {
		byName[a.Name] = a
	}
	if len(byName) < 15 {
		t.Fatalf("only %d algorithms listed", len(byName))
	}
	if !byName["ibp"].NeedsCoords || !byName["rsb"].PowerOfTwoParts || !byName["dknux"].Stochastic {
		t.Errorf("constraints not reflected: %+v %+v %+v", byName["ibp"], byName["rsb"], byName["dknux"])
	}
	if byName["kl"].NeedsCoords {
		t.Error("kl wrongly claims to need coordinates")
	}
}

func TestHTTPStats(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 3, CacheBytes: 5 << 10})
	payload := metisPayload(t, 120)
	for i := 0; i < 2; i++ {
		status, data := postPartition(t, ts.URL, service.PartitionRequest{
			JobSpec: service.JobSpec{Algo: "kl", Parts: 2},
			Graph:   payload,
			Wait:    true,
		})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Version != service.APIVersion {
		t.Errorf("version %q, want %q", s.Version, service.APIVersion)
	}
	if s.Workers != 3 || s.CacheCapacityBytes != 5<<10 {
		t.Errorf("config not reflected: %+v", s)
	}
	if s.JobsSubmitted != 2 || s.CacheMisses != 1 || s.CacheHits != 1 || s.JobsDone != 1 {
		t.Errorf("counters: %+v", s)
	}
	// Legacy submissions route through the store: two identical inline
	// uploads are one stored graph, two parses, one dedup.
	if s.Store.Parses != 2 || s.Store.Graphs != 1 || s.Store.Dedups != 1 {
		t.Errorf("store counters: %+v", s.Store)
	}
	if s.Quota != nil {
		t.Errorf("quota block present without admission control: %+v", s.Quota)
	}
}

// Coordinate-carrying input (native text format) satisfies NeedsCoords
// algorithms end to end.
func TestHTTPTextFormatCarriesCoords(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	var buf bytes.Buffer
	if err := gio.WriteText(&buf, gen.Mesh(150, 9)); err != nil {
		t.Fatal(err)
	}
	status, data := postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "ibp", Parts: 4},
		Format:  "text",
		Graph:   buf.String(),
		Wait:    true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if info := decodeJob(t, data); info.State != service.StateDone {
		t.Fatalf("job %+v", info)
	}
}

func ExampleNewHandler() {
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	ts := httptest.NewServer(service.NewHandler(e))
	defer ts.Close()

	body, _ := json.Marshal(service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "grow", Parts: 2},
		Format:  "edgelist",
		Graph:   "0 1\n1 2\n2 3\n3 0\n",
		Wait:    true,
	})
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var info service.JobInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	fmt.Println(info.State, len(info.Result.Assign), "nodes")
	// Output: done 4 nodes
}
