package service_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"repro/internal/algo"
	"repro/internal/partition"
	"repro/internal/service"
)

// The objective is result-relevant, so it must fragment the cache: the same
// graph refined for edge cut and for worst-part cut are different partitions.
func TestObjectiveFragmentsCacheKey(t *testing.T) {
	e := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20})
	defer e.Close()
	g := testGraph(t)

	cut, err := submit(e, stored(g), "kl", algo.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, cut.ID)
	for _, o := range []partition.Objective{partition.WorstCut, partition.CommVolume} {
		got, err := submit(e, stored(g), "kl", algo.Options{Parts: 4, Objective: o})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Errorf("objective %s request served from the cut-objective cache entry", o.FlagName())
		}
		if got.Key == cut.Key {
			t.Errorf("objective %s produced the cut objective's cache key %s", o.FlagName(), cut.Key)
		}
		done := waitDone(t, e, got.ID)
		if done.State != service.StateDone {
			t.Fatalf("objective %s job state %s: %s", o.FlagName(), done.State, done.Error)
		}
	}
}

// An algorithm that does not declare an objective must reject it at submit
// time with the stable code, never silently optimize something else.
func TestUnsupportedObjectiveRejected(t *testing.T) {
	e := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20})
	defer e.Close()
	g := testGraph(t)
	for _, c := range []struct {
		algo string
		o    partition.Objective
	}{
		{"grow", partition.WorstCut},
		{"fm", partition.CommVolume},
		{"multilevel-fm", partition.CommVolume},
	} {
		_, err := submit(e, stored(g), c.algo, algo.Options{Parts: 4, Objective: c.o})
		var re *service.RequestError
		if !errors.As(err, &re) || re.Code != "unsupported_objective" {
			t.Errorf("%s with %s: got %v, want unsupported_objective", c.algo, c.o.FlagName(), err)
		}
	}
}

// The HTTP surface: canonical and legacy objective names parse, unsupported
// combinations are structured 400s, and /v1/algos declares per-algorithm
// objective support.
func TestHTTPObjectiveSurface(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2, CacheBytes: 1 << 20})
	payload := metisPayload(t, 120)

	status, data := postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "kl", Parts: 4, Objective: "maxcut"},
		Graph:   payload,
		Wait:    true,
	})
	if status != http.StatusOK {
		t.Fatalf("maxcut submit: status %d body %s", status, data)
	}
	status, data = postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "kl", Parts: 4, Objective: "worst"},
		Graph:   payload,
		Wait:    true,
	})
	if status != http.StatusOK {
		t.Fatalf("legacy worst submit: status %d body %s", status, data)
	}
	status, data = postPartition(t, ts.URL, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "grow", Parts: 4, Objective: "commvol"},
		Graph:   payload,
	})
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "unsupported_objective" {
		t.Fatalf("grow+commvol: status %d body %s", status, data)
	}

	resp, err := http.Get(ts.URL + "/v1/algos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var listing service.AlgosResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("bad /v1/algos JSON: %v\n%s", err, body)
	}
	want := map[string][]string{
		"kl":   {"cut", "maxcut", "commvol"},
		"fm":   {"cut", "maxcut"},
		"grow": {"cut"},
	}
	for _, ai := range listing.Algos {
		exp, ok := want[ai.Name]
		if !ok {
			continue
		}
		if len(ai.Objectives) != len(exp) {
			t.Errorf("%s objectives %v, want %v", ai.Name, ai.Objectives, exp)
			continue
		}
		for i := range exp {
			if ai.Objectives[i] != exp[i] {
				t.Errorf("%s objectives %v, want %v", ai.Name, ai.Objectives, exp)
				break
			}
		}
	}
}
