package service_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/service"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Mesh(300, 11)
}

// coordFree round-trips g through METIS, which drops coordinates — the shape
// of every graph partd receives in its default format.
func coordFree(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := gio.ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// stored puts g in a fresh graph store: partd's engine only ever sees
// stored graphs.
func stored(g *graph.Graph) *service.StoredGraph {
	sg, _ := service.NewGraphStore(0).Put(g)
	return sg
}

// submit sends one request through Engine.Submit without waiting.
func submit(e *service.Engine, sg *service.StoredGraph, name string, opts algo.Options) (service.JobInfo, error) {
	infos, err := e.Submit(context.Background(), sg, []service.Request{{Algo: name, Opts: opts}}, false)
	if err != nil {
		return service.JobInfo{}, err
	}
	return infos[0], nil
}

func waitDone(t *testing.T, e *service.Engine, id string) service.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := e.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestSubmitComputesAndCaches(t *testing.T) {
	e := service.New(service.Config{Workers: 2, CacheBytes: 1 << 20})
	defer e.Close()
	g := testGraph(t)
	opts := algo.Options{Parts: 4, Seed: 42}

	first, err := submit(e, stored(g), "multilevel-kl", opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first submission reported cached")
	}
	done := waitDone(t, e, first.ID)
	if done.State != service.StateDone || done.Result == nil {
		t.Fatalf("job state %s, error %q", done.State, done.Error)
	}
	if len(done.Result.Assign) != g.NumNodes() {
		t.Fatalf("result covers %d of %d nodes", len(done.Result.Assign), g.NumNodes())
	}

	second, err := submit(e, stored(g), "multilevel-kl", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical resubmission not served from cache")
	}
	if second.State != service.StateDone {
		t.Fatalf("cached job state %s", second.State)
	}
	for i := range done.Result.Assign {
		if second.Result.Assign[i] != done.Result.Assign[i] {
			t.Fatalf("cached result differs at node %d", i)
		}
	}
	s := e.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Errorf("stats: %d misses, %d hits; want 1, 1", s.CacheMisses, s.CacheHits)
	}

	// A different seed is a different key for a stochastic algorithm.
	third, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different seed served from cache")
	}
	waitDone(t, e, third.ID)
}

// The speed knobs must not fragment the cache: requests differing only in
// Workers/EvalWorkers are the same computation.
func TestSpeedKnobsNormalizedOutOfKey(t *testing.T) {
	e := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20})
	defer e.Close()
	g := testGraph(t)
	a, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 4, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, a.ID)
	b, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 4, Seed: 7, Workers: 3, EvalWorkers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Error("worker-width variant missed the cache")
	}
}

// Content addressing: the same graph parsed from different formats (METIS
// vs edge list) hashes identically, so a resubmission in another format is
// still a cache hit.
func TestCacheKeyIsContentAddressed(t *testing.T) {
	e := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20})
	defer e.Close()
	g := coordFree(t, testGraph(t))
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	g2, err := gio.ReadEdgeList(&el)
	if err != nil {
		t.Fatal(err)
	}
	a, err := submit(e, stored(g), "kl", algo.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, a.ID)
	b, err := submit(e, stored(g2), "kl", algo.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Error("equal graph content from a different format missed the cache")
	}
	if a.Key != b.Key {
		t.Errorf("keys differ: %s vs %s", a.Key, b.Key)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const n = 16
	e := service.New(service.Config{Workers: 2, CacheBytes: 1 << 20})
	defer e.Close()
	g := testGraph(t)
	opts := algo.Options{Parts: 8, Seed: 5}

	var wg sync.WaitGroup
	infos := make([]service.JobInfo, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := submit(e, stored(g), "multilevel-fm", opts)
			if err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			infos[i], errs[i] = e.WaitJob(ctx, info.ID)
		}(i)
	}
	wg.Wait()

	computed := 0
	var ref []uint16
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if infos[i].State != service.StateDone {
			t.Fatalf("request %d state %s (%s)", i, infos[i].State, infos[i].Error)
		}
		if !infos[i].Cached {
			computed++
		}
		if ref == nil {
			ref = infos[i].Result.Assign
			continue
		}
		for v := range ref {
			if infos[i].Result.Assign[v] != ref[v] {
				t.Fatalf("request %d: partition differs at node %d", i, v)
			}
		}
	}
	if computed != 1 {
		t.Errorf("%d of %d identical requests computed; want exactly 1", computed, n)
	}
	s := e.Stats()
	if s.CacheMisses != 1 {
		t.Errorf("stats: %d misses; want 1", s.CacheMisses)
	}
	if s.CacheHits+s.Coalesced != n-1 {
		t.Errorf("stats: %d hits + %d coalesced; want %d total", s.CacheHits, s.Coalesced, n-1)
	}
}

// The pool width is a pure throughput knob: a 1-worker and a 4-worker engine
// produce bit-identical results for the same requests.
func TestPoolWidthDoesNotChangeResults(t *testing.T) {
	g := testGraph(t)
	run := func(workers int) [][]uint16 {
		e := service.New(service.Config{Workers: workers, CacheBytes: 1 << 20, JobParallelism: 1})
		defer e.Close()
		var out [][]uint16
		var ids []string
		for seed := int64(0); seed < 4; seed++ {
			info, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, info.ID)
		}
		for _, id := range ids {
			out = append(out, waitDone(t, e, id).Result.Assign)
		}
		return out
	}
	serial, wide := run(1), run(4)
	for i := range serial {
		for v := range serial[i] {
			if serial[i][v] != wide[i][v] {
				t.Fatalf("seed %d: pool width changed the partition at node %d", i, v)
			}
		}
	}
}

func TestConstraintRejection(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	g := coordFree(t, testGraph(t)) // no coordinates

	cases := []struct {
		algo  string
		parts int
		code  string
	}{
		{"nope", 4, "unknown_algo"},
		{"kl", 0, "bad_parts"},
		{"kl", g.NumNodes() + 1, "bad_parts"},
		{"ibp", 4, "needs_coords"},
		{"rcb", 4, "needs_coords"}, // needs_coords checked before power-of-two
		{"rsb", 3, "parts_not_power_of_two"},
	}
	for _, c := range cases {
		_, err := submit(e, stored(g), c.algo, algo.Options{Parts: c.parts})
		re, ok := err.(*service.RequestError)
		if !ok {
			t.Errorf("%s/p%d: got %v, want RequestError", c.algo, c.parts, err)
			continue
		}
		if re.Code != c.code {
			t.Errorf("%s/p%d: code %q, want %q", c.algo, c.parts, re.Code, c.code)
		}
	}
	if s := e.Stats(); s.JobsSubmitted != 0 {
		t.Errorf("rejected requests counted as submissions: %d", s.JobsSubmitted)
	}
}

func TestCacheEviction(t *testing.T) {
	// Size the byte budget from a measured single entry: every result here is
	// the same graph/algo shape, so a budget of 2.5 entries must retain
	// exactly two and evict LRU-first on the third insert.
	probe := service.New(service.Config{Workers: 1})
	g := testGraph(t)
	info, err := submit(probe, stored(g), "kl", algo.Options{Parts: 2, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, probe, info.ID)
	entryBytes := probe.Stats().CacheBytes
	probe.Close()
	if entryBytes <= 0 {
		t.Fatalf("probe reported %d cache bytes", entryBytes)
	}

	e := service.New(service.Config{Workers: 1, CacheBytes: entryBytes*2 + entryBytes/2})
	defer e.Close()
	for seed := int64(0); seed < 3; seed++ {
		info, err := submit(e, stored(g), "kl", algo.Options{Parts: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, e, info.ID)
	}
	s := e.Stats()
	if s.CacheEvictions != 1 || s.CacheEntries != 2 {
		t.Errorf("evictions %d entries %d; want 1, 2", s.CacheEvictions, s.CacheEntries)
	}
	if s.CacheBytes != 2*entryBytes {
		t.Errorf("cache retains %d bytes, want %d (2 entries)", s.CacheBytes, 2*entryBytes)
	}
	if s.CacheBytes > s.CacheCapacityBytes {
		t.Errorf("cache bytes %d exceed the %d budget", s.CacheBytes, s.CacheCapacityBytes)
	}
	// kl ignores Seed (deterministic), so seed 0 recomputes to the same
	// partition after eviction — the determinism the cache key relies on.
	info, err = submit(e, stored(g), "kl", algo.Options{Parts: 2, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Error("evicted key still reported cached")
	}
	waitDone(t, e, info.ID)
}

// The job table must not grow with total request count: old finished jobs
// fall out of the history bound (the daemon runs indefinitely).
func TestJobHistoryBounded(t *testing.T) {
	e := service.New(service.Config{Workers: 1, CacheBytes: 1 << 20, JobHistory: 8})
	defer e.Close()
	g := testGraph(t)
	var first string
	for i := 0; i < 30; i++ {
		info, err := submit(e, stored(g), "grow", algo.Options{Parts: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = info.ID
		}
		waitDone(t, e, info.ID)
	}
	if _, ok := e.GetJob(first); ok {
		t.Errorf("job %s still pollable after 30 submissions with history 8", first)
	}
	s := e.Stats()
	if s.JobsSubmitted != 30 {
		t.Fatalf("submitted %d", s.JobsSubmitted)
	}
}

// A full computation queue refuses new work instead of queueing without
// bound — each queued entry pins a parsed graph.
func TestQueueBackpressure(t *testing.T) {
	e := service.New(service.Config{Workers: 1, MaxQueue: 2, JobParallelism: 1})
	defer e.Close()
	g := testGraph(t)
	// Occupy the single worker with a GA run (hundreds of ms), then fill
	// the queue with distinct computations.
	slow := algo.Options{Parts: 2, Seed: 1, Generations: 60, PopSize: 64, Islands: 4}
	if _, err := submit(e, stored(g), "dknux", slow); err != nil {
		t.Fatal(err)
	}
	overloaded := false
	for seed := int64(2); seed < 8; seed++ {
		_, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 2, Seed: seed})
		if errors.Is(err, service.ErrOverloaded) {
			overloaded = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !overloaded {
		t.Error("6 submissions through a busy 1-worker engine with MaxQueue=2 never hit backpressure")
	}
	// Identical requests still coalesce — coalescing needs no queue slot.
	if _, err := submit(e, stored(g), "dknux", slow); err != nil {
		t.Errorf("coalescing onto the running job hit backpressure: %v", err)
	}
}

func TestWaitJobUnknownIsErrNoJob(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := e.WaitJob(ctx, "zzz"); !errors.Is(err, service.ErrNoJob) {
		t.Fatalf("got %v, want ErrNoJob", err)
	}
}

func TestPartsAboveUint16Rejected(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	// A graph big enough that parts <= nodes passes; the uint16 bound must
	// still reject it. Built cheaply as a long path.
	n := 1<<16 + 2
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	_, err := submit(e, stored(b.Build()), "scattered", algo.Options{Parts: 1<<16 + 1})
	re, ok := err.(*service.RequestError)
	if !ok || re.Code != "bad_parts" {
		t.Fatalf("got %v, want bad_parts RequestError", err)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	g := testGraph(t)
	var ids []string
	for seed := int64(0); seed < 4; seed++ {
		// Distinct seeds: four distinct computations through a 1-wide pool.
		info, err := submit(e, stored(g), "multilevel-kl", algo.Options{Parts: 4, Seed: 100 + seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	e.Close()
	for _, id := range ids {
		info, ok := e.GetJob(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.State != service.StateDone && info.State != service.StateFailed {
			t.Errorf("job %s left in state %s after Close", id, info.State)
		}
	}
	if _, err := submit(e, stored(g), "kl", algo.Options{Parts: 2}); err == nil {
		t.Error("Submit accepted after Close")
	}
}

func TestRuntimeFailureIsReported(t *testing.T) {
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	g := testGraph(t)
	// Passes the submit-time constraint checks, but the algorithm fails at
	// run time: the job must fail cleanly with the error preserved, not take
	// the engine down.
	fail := func(*graph.Graph, algo.Options) (*partition.Partition, error) {
		return nil, errors.New("test-block: failed at run time")
	}
	blockBehavior.Store(&fail)
	t.Cleanup(func() { blockBehavior.Store(nil) })
	info, err := submit(e, stored(g), "test-block", algo.Options{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, e, info.ID)
	if final.State != service.StateFailed || final.Error == "" {
		t.Fatalf("state %s error %q; want failed with an error", final.State, final.Error)
	}
	if s := e.Stats(); s.JobsFailed != 1 {
		t.Errorf("JobsFailed %d; want 1", s.JobsFailed)
	}
	// Failures are not cached: the same request computes again.
	again, err := submit(e, stored(g), "test-block", algo.Options{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("failed computation was served from cache")
	}
}
