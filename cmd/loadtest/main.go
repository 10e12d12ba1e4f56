// Command loadtest drives a partd daemon with a Zipf-distributed multi-client
// workload and reports throughput, latency percentiles, and cache behavior.
//
// N concurrent clients each issue a deterministic sequence of single-spec
// batch submissions, sampling which stored graph to partition from a Zipf
// popularity distribution — the skewed access pattern a shared partitioning
// service actually sees, and the regime a content-addressed result cache is
// supposed to win in. Because every client's sequence is derived from -seed,
// the run is reproducible, and the exact cache-hit floor is computable from
// the sampled sequence itself: each distinct (graph, spec) key can miss at
// most once, so hits >= successes - distinct_keys. The -check flag turns that
// invariant, plus "zero non-429 errors", into an exit code for CI.
//
// With -addr the load goes to a running daemon or partroute fleet router
// (the wire surface is identical); without it the tool boots an in-process
// daemon on a loopback port, so the gate needs no orchestration. With
// -fleet N it boots N in-process shards behind an in-process router instead,
// and the report gains the per-shard request distribution so routing skew is
// visible; -check then additionally requires every live shard to have served
// traffic and the aggregate stats to equal the per-shard sums.
//
// Usage:
//
//	loadtest -clients 4 -requests 50 -graphs 5 -json bench/BENCH_loadtest.json -check
//	loadtest -fleet 3 -clients 6 -requests 40 -graphs 6 -json bench/BENCH_fleet.json -check
//	loadtest -addr 127.0.0.1:9090 -clients 16 -requests 200
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/ring"
	"repro/internal/service"
	"repro/pkg/client"
)

type config struct {
	addr     string
	fleet    int
	clients  int
	requests int
	graphs   int
	nodes    int
	parts    int
	algo     string
	seeds    int
	zipfS    float64
	seed     int64
	workers  int
	rate     float64
	burst    float64
	jsonPath string
	check    bool
}

// reportSchema names the report wire format; fleet fields are additive.
const reportSchema = "repro-loadtest/v1"

// report is the JSON the run emits (and bench/BENCH_loadtest.json commits).
type report struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests_per_client"`
	Graphs    int     `json:"graphs"`
	Nodes     int     `json:"nodes"`
	Parts     int     `json:"parts"`
	Algo      string  `json:"algo"`
	Seeds     int     `json:"distinct_seeds"`
	ZipfS     float64 `json:"zipf_s"`
	Seed      int64   `json:"seed"`

	Total        int   `json:"total_requests"`
	OK           int   `json:"ok"`
	Throttled    int   `json:"throttled"` // structured 429s (quota or queue backpressure)
	Errors       int   `json:"errors"`    // everything else — must be zero
	ElapsedNS    int64 `json:"elapsed_ns"`
	ThroughputHz int64 `json:"throughput_milli_rps"` // successful requests per second, x1000

	LatencyP50NS  int64 `json:"latency_p50_ns"`
	LatencyP90NS  int64 `json:"latency_p90_ns"`
	LatencyP99NS  int64 `json:"latency_p99_ns"`
	LatencyMaxNS  int64 `json:"latency_max_ns"`
	LatencyMeanNS int64 `json:"latency_mean_ns"`

	DistinctKeys   int     `json:"distinct_keys"` // among successful requests
	CacheHits      uint64  `json:"cache_hits"`    // completed-result hits + coalesced joins
	CacheMisses    uint64  `json:"cache_misses"`
	HitRate        float64 `json:"hit_rate"`
	PredictedFloor float64 `json:"predicted_hit_floor"` // (ok - distinct_keys) / ok
	StoreParses    uint64  `json:"store_parses"`
	StoreHashes    uint64  `json:"store_hashes"`
	StoreDedups    uint64  `json:"store_dedups"`

	// Fleet mode only: the per-shard request distribution (keyed by shard
	// name) and the router's own routing counters, so placement skew and
	// routing cost are visible in the committed artifact.
	Shards         map[string]shardReport `json:"shards,omitempty"`
	RouteParses    uint64                 `json:"route_parses,omitempty"`
	RouteCacheHits uint64                 `json:"route_cache_hits,omitempty"`
}

// shardReport is one shard's slice of a fleet run.
type shardReport struct {
	Up            bool   `json:"up"`
	Proxied       uint64 `json:"proxied"` // data-plane requests the router sent it
	JobsSubmitted uint64 `json:"jobs_submitted"`
	StoreGraphs   int    `json:"store_graphs"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "daemon or fleet-router address (empty = boot in-process)")
	flag.IntVar(&cfg.fleet, "fleet", 0, "boot an in-process fleet of N shards behind a router instead of one daemon (ignored with -addr)")
	flag.IntVar(&cfg.clients, "clients", 4, "concurrent clients")
	flag.IntVar(&cfg.requests, "requests", 50, "requests per client")
	flag.IntVar(&cfg.graphs, "graphs", 5, "distinct stored graphs")
	flag.IntVar(&cfg.nodes, "nodes", 1500, "nodes in the smallest graph (each next graph is ~25% larger)")
	flag.IntVar(&cfg.parts, "parts", 8, "parts per job")
	flag.StringVar(&cfg.algo, "algo", "multilevel-kl", "algorithm to request")
	flag.IntVar(&cfg.seeds, "seeds", 3, "distinct job seeds per graph (widens the cache key space)")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.3, "Zipf exponent for graph popularity (> 1)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the whole run is deterministic in it")
	flag.IntVar(&cfg.workers, "workers", 0, "in-process daemon worker pool (0 = GOMAXPROCS)")
	flag.Float64Var(&cfg.rate, "rate", 0, "in-process daemon per-client quota rate (0 = off)")
	flag.Float64Var(&cfg.burst, "burst", 0, "in-process daemon quota burst")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the JSON report here")
	flag.BoolVar(&cfg.check, "check", false, "exit nonzero unless errors == 0 and hit_rate >= predicted floor")
	flag.Parse()

	rep, err := run(cfg)
	if err != nil {
		log.Fatalf("loadtest: %v", err)
	}
	fmt.Printf("loadtest: %d/%d ok (%d throttled, %d errors) in %v\n",
		rep.OK, rep.Total, rep.Throttled, rep.Errors, time.Duration(rep.ElapsedNS))
	fmt.Printf("loadtest: latency p50 %v  p90 %v  p99 %v  max %v\n",
		time.Duration(rep.LatencyP50NS), time.Duration(rep.LatencyP90NS),
		time.Duration(rep.LatencyP99NS), time.Duration(rep.LatencyMaxNS))
	fmt.Printf("loadtest: cache hit rate %.3f (floor %.3f from %d distinct keys)\n",
		rep.HitRate, rep.PredictedFloor, rep.DistinctKeys)
	if len(rep.Shards) > 0 {
		names := make([]string, 0, len(rep.Shards))
		for name := range rep.Shards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := rep.Shards[name]
			fmt.Printf("loadtest: shard %s: up=%v proxied=%d jobs=%d graphs=%d\n",
				name, s.Up, s.Proxied, s.JobsSubmitted, s.StoreGraphs)
		}
		fmt.Printf("loadtest: router parses %d, memo hits %d\n", rep.RouteParses, rep.RouteCacheHits)
	}
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("loadtest: %v", err)
		}
	}
	if cfg.check {
		if rep.Errors > 0 {
			log.Fatalf("loadtest: CHECK FAILED: %d non-429 errors", rep.Errors)
		}
		if rep.OK == 0 {
			log.Fatal("loadtest: CHECK FAILED: no request succeeded")
		}
		if rep.HitRate < rep.PredictedFloor {
			log.Fatalf("loadtest: CHECK FAILED: hit rate %.3f below predicted floor %.3f",
				rep.HitRate, rep.PredictedFloor)
		}
		for name, s := range rep.Shards {
			if s.Up && s.Proxied == 0 {
				log.Fatalf("loadtest: CHECK FAILED: live shard %s served no requests (routing skew or misconfiguration)", name)
			}
		}
		if len(rep.Shards) > 0 {
			var shardJobs uint64
			for _, s := range rep.Shards {
				shardJobs += s.JobsSubmitted
			}
			var aggJobs uint64 = rep.CacheHits + rep.CacheMisses
			if shardJobs != aggJobs {
				log.Fatalf("loadtest: CHECK FAILED: aggregate jobs %d != per-shard sum %d (stats aggregation broken)", aggJobs, shardJobs)
			}
		}
		fmt.Println("loadtest: CHECK PASSED")
	}
}

func run(cfg config) (*report, error) {
	base := cfg.addr
	if base == "" {
		boot := bootDaemon
		if cfg.fleet > 0 {
			boot = bootFleet
		}
		addr, shutdown, err := boot(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		base = addr
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	// Build and upload the graph corpus. Every graph is uploaded by client 0;
	// the first request of every other client re-uploads one (exercising the
	// dedup path a real fleet hits constantly).
	payloads := make([]string, cfg.graphs)
	hashes := make([]string, cfg.graphs)
	for i := range payloads {
		n := cfg.nodes + i*cfg.nodes/4
		var sb strings.Builder
		if err := gio.WriteGraph(gio.FormatMETIS, &sb, gen.Mesh(n, cfg.seed+int64(i))); err != nil {
			return nil, err
		}
		payloads[i] = sb.String()
	}
	ctx := context.Background()
	uploader := client.New(base, client.WithName("load-uploader"))
	for i, p := range payloads {
		resp, err := uploader.UploadGraph(ctx, "metis", p)
		if err != nil {
			return nil, fmt.Errorf("uploading graph %d: %w", i, err)
		}
		hashes[i] = resp.Hash
	}

	// Precompute every client's deterministic request sequence: Zipf over
	// graphs (rank 0 most popular), uniform over job seeds.
	type reqKey struct{ graph, seed int }
	sequences := make([][]reqKey, cfg.clients)
	for c := range sequences {
		rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
		zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.graphs-1))
		seq := make([]reqKey, cfg.requests)
		for r := range seq {
			seq[r] = reqKey{graph: int(zipf.Uint64()), seed: rng.Intn(cfg.seeds)}
		}
		sequences[c] = seq
	}

	var (
		mu                    sync.Mutex
		latencies             []time.Duration
		okKeys                = map[reqKey]struct{}{}
		ok, throttled, failed int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base, client.WithName(fmt.Sprintf("load-%d", c)))
			if c > 0 {
				// Re-upload this client's first graph: must dedup, not fail.
				if _, err := cl.UploadGraph(ctx, "metis", payloads[sequences[c][0].graph]); err != nil {
					var apiErr *client.APIError
					if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
						mu.Lock()
						failed++
						mu.Unlock()
					}
				}
			}
			for _, k := range sequences[c] {
				spec := service.JobSpec{Algo: cfg.algo, Parts: cfg.parts, Seed: int64(k.seed)}
				t0 := time.Now()
				resp, err := cl.SubmitBatchWait(ctx, hashes[k.graph], []service.JobSpec{spec})
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err == nil && len(resp.Jobs) == 1 && resp.Jobs[0].State == service.StateDone:
					ok++
					okKeys[k] = struct{}{}
					latencies = append(latencies, lat)
				case isThrottle(err):
					throttled++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats, err := client.New(base, client.WithName("load-uploader")).Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading final stats: %w", err)
	}

	rep := &report{
		Schema:    reportSchema,
		GoVersion: runtime.Version(),
		Clients:   cfg.clients, Requests: cfg.requests, Graphs: cfg.graphs,
		Nodes: cfg.nodes, Parts: cfg.parts, Algo: cfg.algo, Seeds: cfg.seeds,
		ZipfS: cfg.zipfS, Seed: cfg.seed,
		Total: cfg.clients * cfg.requests, OK: ok, Throttled: throttled, Errors: failed,
		ElapsedNS:    elapsed.Nanoseconds(),
		DistinctKeys: len(okKeys),
		CacheHits:    stats.CacheHits + stats.Coalesced,
		CacheMisses:  stats.CacheMisses,
		StoreParses:  stats.Store.Parses,
		StoreHashes:  stats.Store.Hashes,
		StoreDedups:  stats.Store.Dedups,
	}
	if elapsed > 0 {
		rep.ThroughputHz = int64(float64(ok) / elapsed.Seconds() * 1000)
	}
	if ok > 0 {
		// The floor holds exactly because each distinct key can miss at most
		// once (the result cache outlives the run and nothing evicts at these
		// payload sizes): hits >= ok - distinct.
		rep.PredictedFloor = float64(ok-len(okKeys)) / float64(ok)
	}
	if submitted := stats.CacheHits + stats.Coalesced + stats.CacheMisses; submitted > 0 {
		rep.HitRate = float64(rep.CacheHits) / float64(submitted)
	}
	// If the target is a fleet router, its stats carry a per-shard breakdown;
	// fold it into the report (absent against a single daemon).
	if fs, err := fetchFleetBlock(base); err != nil {
		return nil, err
	} else if fs != nil {
		rep.Shards = make(map[string]shardReport, len(fs.Fleet.Shards))
		for _, s := range fs.Fleet.Shards {
			sr := shardReport{Up: s.Up, Proxied: s.Proxied}
			if st, ok := fs.Fleet.ShardStats[s.Name]; ok {
				sr.JobsSubmitted = st.JobsSubmitted
				sr.StoreGraphs = st.Store.Graphs
			}
			rep.Shards[s.Name] = sr
		}
		rep.RouteParses = fs.Fleet.Router.RouteParses
		rep.RouteCacheHits = fs.Fleet.Router.RouteCacheHits
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		pct := func(p float64) int64 {
			i := int(p * float64(len(latencies)-1))
			return latencies[i].Nanoseconds()
		}
		rep.LatencyP50NS = pct(0.50)
		rep.LatencyP90NS = pct(0.90)
		rep.LatencyP99NS = pct(0.99)
		rep.LatencyMaxNS = latencies[len(latencies)-1].Nanoseconds()
		rep.LatencyMeanNS = (sum / time.Duration(len(latencies))).Nanoseconds()
	}
	return rep, nil
}

// isThrottle reports whether err is a structured 429 — quota or queue
// backpressure, the one refusal the gate tolerates.
func isThrottle(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

// fetchFleetBlock reads the target's /v1/stats and returns the fleet block
// when the target is a router (nil against a single daemon, whose stats
// carry no "fleet" key).
func fetchFleetBlock(base string) (*fleet.StatsResponse, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("reading fleet stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet stats: status %d", resp.StatusCode)
	}
	var fs fleet.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return nil, fmt.Errorf("decoding fleet stats: %w", err)
	}
	if len(fs.Fleet.Shards) == 0 {
		return nil, nil
	}
	return &fs, nil
}

// bootFleet starts cfg.fleet in-process shards and a router over them on
// loopback ports, returning the router's address and a shutdown func.
func bootFleet(cfg config) (string, func(), error) {
	var (
		members   []ring.Member
		shutdowns []func()
	)
	shutdownAll := func() {
		for _, f := range shutdowns {
			f()
		}
	}
	for i := 1; i <= cfg.fleet; i++ {
		engine := service.New(service.Config{Workers: cfg.workers})
		opts := []service.HandlerOption{service.WithStore(service.NewGraphStore(0))}
		if cfg.rate > 0 {
			opts = append(opts, service.WithQuota(service.NewQuota(cfg.rate, cfg.burst)))
		}
		srv := &http.Server{Handler: service.NewHandler(engine, opts...)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdownAll()
			return "", nil, err
		}
		go srv.Serve(ln)
		shutdowns = append(shutdowns, func() { srv.Close(); engine.Close() })
		members = append(members, ring.Member{Name: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()})
	}
	rt, err := fleet.New(fleet.Config{Members: members, HealthInterval: 500 * time.Millisecond})
	if err != nil {
		shutdownAll()
		return "", nil, err
	}
	shutdowns = append(shutdowns, rt.Close)
	srv := &http.Server{Handler: rt.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownAll()
		return "", nil, err
	}
	go srv.Serve(ln)
	shutdowns = append(shutdowns, func() { srv.Close() })
	return ln.Addr().String(), shutdownAll, nil
}

// bootDaemon starts an in-process daemon on a loopback port and returns its
// address and a shutdown func.
func bootDaemon(cfg config) (string, func(), error) {
	engine := service.New(service.Config{Workers: cfg.workers})
	store := service.NewGraphStore(0)
	var quota *service.Quota
	if cfg.rate > 0 {
		quota = service.NewQuota(cfg.rate, cfg.burst)
	}
	srv := &http.Server{Handler: service.NewHandler(engine, service.WithStore(store), service.WithQuota(quota))}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(ln)
	shutdown := func() {
		srv.Close()
		engine.Close()
	}
	return ln.Addr().String(), shutdown, nil
}
