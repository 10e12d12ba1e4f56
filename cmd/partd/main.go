// Command partd is the partition-as-a-service daemon: a multi-tenant HTTP
// JSON API over the unified algorithm registry, with a content-addressed
// graph store, batch job submission, cancellation, per-client quotas, a
// bounded worker pool, and a content-addressed result cache (see
// internal/service).
//
// Usage:
//
//	partd -addr :8080 -workers 4 -cache-mb 128 -store-mb 256 \
//	      -job-log partd-jobs.jsonl -rate 50 -burst 100
//
// Endpoints (API v2):
//
//	PUT    /v1/graphs         upload a graph once; returns its content address
//	GET    /v1/graphs/{hash}  stored-graph metadata
//	POST   /v1/jobs           batch-submit specs against a stored graph
//	GET    /v1/jobs/{id}      poll a job (?wait=1 blocks until it completes)
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/partition      legacy inline submit: store the graph, then a one-spec batch
//	GET    /v1/algos          the algorithm registry with declared constraints
//	GET    /v1/stats          worker, job, cache, store, and quota counters
//
// Both job endpoints submit through one engine call that checks every spec
// before queueing any and, when waiting, waits on the jobs it holds.
//
// See README.md for the request schemas and an example curl session. The
// daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests and
// running jobs finish, queued jobs fail with a typed engine_closed error.
// With -job-log, terminal job records persist across restarts (bounded,
// JSONL, assignment vectors stripped).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ring"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the resolved listen address to this file once serving (for scripts using -addr :0)")
		workers   = flag.Int("workers", 0, "concurrent partition computations (0 = GOMAXPROCS)")
		cacheMB   = flag.Int("cache-mb", 0, "result cache budget in MiB of payload (0 = default 64)")
		storeMB   = flag.Int("store-mb", 0, "graph store budget in MiB of CSR payload (0 = default 256)")
		jobPar    = flag.Int("job-parallelism", 0, "per-computation worker width; never changes results (0 = auto)")
		jobLog    = flag.String("job-log", "", "JSONL file persisting terminal job records across restarts (empty = no persistence)")
		jobLogMax = flag.Int("job-log-max", 0, "job log record bound (0 = default 1024)")
		rate      = flag.Float64("rate", 0, "per-client sustained mutating-requests/sec quota (0 = no admission control)")
		burst     = flag.Float64("burst", 0, "per-client burst allowance on top of -rate (0 = max(rate, 1))")
		tokens    = flag.String("tokens", "", "bearer-token file (one '<token> <client-name>' per line); when set every request except /v1/healthz must authenticate")
		fleet     = flag.String("fleet", "", "fleet members as name=host:port,... (enables peer-fetch of graphs this shard does not hold)")
		self      = flag.String("self", "", "this shard's member name within -fleet (required with -fleet)")
		peerToken = flag.String("peer-token", "", "bearer token presented to fleet peers when fetching graphs")
	)
	flag.Parse()

	// Install signal handling before anything announces readiness: scripts
	// kill the daemon as soon as the addr file appears, and a SIGTERM
	// racing ahead of the handler would hit the default disposition and
	// skip the graceful path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		jlog     *service.JobLog
		restored []service.JobInfo
	)
	if *jobLog != "" {
		var err error
		jlog, restored, err = service.OpenJobLog(*jobLog, *jobLogMax)
		if err != nil {
			log.Fatalf("partd: %v", err)
		}
		defer jlog.Close()
		if len(restored) > 0 {
			log.Printf("partd: restored %d job records from %s", len(restored), *jobLog)
		}
	}

	engine := service.New(service.Config{
		Workers:        *workers,
		CacheBytes:     int64(*cacheMB) << 20,
		JobParallelism: *jobPar,
		Log:            jlog,
		Restore:        restored,
	})
	store := service.NewGraphStore(int64(*storeMB) << 20)
	opts := []service.HandlerOption{service.WithStore(store)}
	if *rate > 0 {
		opts = append(opts, service.WithQuota(service.NewQuota(*rate, *burst)))
	}
	if *tokens != "" {
		auth, err := service.LoadAuthFile(*tokens)
		if err != nil {
			log.Fatalf("partd: %v", err)
		}
		opts = append(opts, service.WithAuth(auth))
	}
	if *fleet != "" {
		members, err := ring.ParseMembers(*fleet)
		if err != nil {
			log.Fatalf("partd: %v", err)
		}
		if *self == "" {
			log.Fatal("partd: -fleet requires -self (this shard's member name)")
		}
		peers, err := service.NewPeerFetcher(members, *self, *peerToken)
		if err != nil {
			log.Fatalf("partd: %v", err)
		}
		opts = append(opts, service.WithPeers(peers))
	} else if *self != "" {
		log.Fatal("partd: -self is meaningless without -fleet")
	}
	srv := &http.Server{
		Handler:           service.NewHandler(engine, opts...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("partd: %v", err)
	}
	log.Printf("partd: listening on %s (api %s)", ln.Addr(), service.APIVersion)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("partd: writing -addr-file: %v", err)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("partd: %v", err)
	case <-ctx.Done():
	}
	log.Print("partd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("partd: shutdown: %v", err)
	}
	engine.Close()
	s := engine.Stats()
	st := store.Stats()
	fmt.Printf("partd: served %d jobs (%d computed, %d failed, %d cancelled, %d cache hits, %d coalesced, %d evictions); store %d graphs (%d parses, %d dedups)\n",
		s.JobsSubmitted, s.JobsDone, s.JobsFailed, s.JobsCancelled, s.CacheHits, s.Coalesced, s.CacheEvictions,
		st.Graphs, st.Parses, st.Dedups)
}
