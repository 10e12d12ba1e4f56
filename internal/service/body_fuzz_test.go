package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/gio"
	"repro/internal/service"
)

// bodyEndpoints are the routes whose JSON request bodies FuzzRequestBodies
// feeds; the fuzzed selector byte picks one.
var bodyEndpoints = []struct{ method, path string }{
	{http.MethodPut, "/v1/graphs"},
	{http.MethodPost, "/v1/jobs"},
	{http.MethodPost, "/v1/partition"},
}

// gaAlgos run for their default 200 generations when a spec gives none.
var gaAlgos = []string{"dknux", "knux", "ux", "2pt", "multilevel-ga"}

// longJob reports whether body, sent to endpoint, would submit a spec whose
// compute the request leaves unbounded: a GA run past a handful of
// generations. Generations have no ceiling in the wire format, so such a
// job can run for hours; the fuzz target skips it, as it is not the
// decoder's concern. The body is decoded as the handler decodes it, one
// JSON value with anything after it ignored.
func longJob(endpoint int, body []byte) bool {
	var specs []service.JobSpec
	switch endpoint {
	case 1:
		var req service.BatchRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return false
		}
		specs = req.Specs
	case 2:
		var req service.PartitionRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return false
		}
		specs = []service.JobSpec{req.JobSpec}
	}
	for _, s := range specs {
		if s.Generations > 4 || (s.Generations <= 0 && slices.Contains(gaAlgos, s.Algo)) {
			return true
		}
	}
	return false
}

// The bodies of PUT /v1/graphs, POST /v1/jobs and POST /v1/partition are the
// daemon's untrusted JSON: whatever they hold, the handler must not panic,
// must never answer 5xx (the engine is open and no request is cancelled
// here, so no 503 is due), and must wrap every 4xx in the error envelope
// with a code and a message. One graph is stored up front, so batch bodies
// that name it reach spec validation and submission.
func FuzzRequestBodies(f *testing.F) {
	e := service.New(service.Config{Workers: 1, JobParallelism: 1})
	f.Cleanup(e.Close)
	store := service.NewGraphStore(0)
	const metis = "4 4\n2 4\n1 3\n2 4\n1 3\n"
	sg, _, re := store.ParseAndPut("metis", metis)
	if re != nil {
		f.Fatal(re)
	}
	h := service.NewHandler(e, service.WithStore(store))
	put, _ := json.Marshal(service.GraphPutRequest{Format: "metis", Graph: metis})
	var native strings.Builder
	if err := gio.WriteGraph(gio.FormatText, &native, sg.Graph); err != nil {
		f.Fatal(err)
	}
	text, _ := json.Marshal(service.GraphPutRequest{Format: "text", Graph: native.String()})
	batch := func(spec string, wait bool) []byte {
		b, _ := json.Marshal(map[string]any{"graph": sg.Hash, "specs": json.RawMessage(spec), "wait": wait})
		return b
	}
	inline := func(extra string) []byte {
		b, _ := json.Marshal(map[string]any{"format": "metis", "graph": metis, "wait": true})
		return append(b[:len(b)-1], []byte(extra+"}")...)
	}
	for _, s := range []struct {
		endpoint uint8
		body     []byte
	}{
		{0, put},
		{0, text},
		{0, []byte(`{"format":"metis","graph":"2 1\n2\n"}`)},
		{0, []byte(`{"format":"gml","graph":""}`)},
		{0, []byte(`{"graph":5}`)},
		{0, []byte(`{"format":"metis","graph":"1000000000 1\n"}`)},
		{0, []byte(`[]`)},
		{0, []byte(``)},
		{1, batch(`[{"algo":"multilevel-kl","parts":2,"seed":7}]`, true)},
		{1, batch(`[{"algo":"kl","parts":2},{"algo":"fm","parts":3,"objective":"maxcut"}]`, false)},
		{1, batch(`[{"algo":"dknux","parts":2,"islands":3,"generations":2}]`, true)},
		{1, batch(`[{"algo":"grow","parts":70000}]`, true)},
		{1, batch(`[{"algo":"nope","parts":2}]`, true)},
		{1, batch(`[{"algo":"kl","parts":2,"objective":"bogus"}]`, true)},
		{1, batch(`[]`, true)},
		{1, []byte(`{"graph":"sha256:00","specs":[{"algo":"kl","parts":2}]}`)},
		{1, []byte(`{"graph":"` + sg.Hash + `","specs":null}`)},
		{1, append(batch(`[{"algo":"dknux","parts":2,"generations":1000000000}]`, true), " trailing"...)},
		{2, inline(`,"algo":"multilevel-kl","parts":2,"seed":1`)},
		{2, inline(`,"algo":"rsb","parts":3`)},
		{2, inline(`,"algo":"ibp","parts":2`)},
		{2, inline(`,"algo":"2pt","parts":2,"generations":3,"pop_size":16,"islands":1`)},
		{2, []byte(`{"algo":"kl","parts":2,"graph":"x"}`)},
		{2, []byte(`{"algo":"kl","parts":2,"format":"edgelist","graph":"0 1\n1 0\n"}`)},
		{2, []byte(`{`)},
	} {
		f.Add(s.endpoint, s.body)
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		endpoint := int(sel) % len(bodyEndpoints)
		if longJob(endpoint, body) {
			t.Skip("unbounded job")
		}
		ep := bodyEndpoints[endpoint]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(ep.method, ep.path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s %q: status %d: %s", ep.method, ep.path, body, rec.Code, rec.Body)
		}
		if rec.Code < 400 {
			return
		}
		var env struct {
			Error *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s %s %q: status %d without the error envelope: %q", ep.method, ep.path, body, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s %q: status %d with Content-Type %q", ep.method, ep.path, body, rec.Code, ct)
		}
	})
}
