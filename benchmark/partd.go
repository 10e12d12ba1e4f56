package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/pkg/client"
)

// zipfS is the skew of partd-mixed's graph choice. At 1.1 a client sends
// about a quarter of its jobs to the graph it uploaded last, so each new
// graph's four job seeds miss the cache soon after its upload, and misses
// settle near a fifth of all jobs.
const zipfS = 1.1

// stored is one graph partd-mixed uploads: a stored mesh, or a reweighted
// copy of one (gen.SkewWeights), which keeps the mesh's structure under a
// new content address.
type stored struct {
	payload string // METIS text
	nodes   int
	base    int    // index of the mesh in partdInputs.bases
	skew    int64  // SkewWeights seed; 0 for the mesh itself
	hash    string // content address, once uploaded
}

// partdInputs are partd-mixed's generated graphs. Generating them is not
// timed.
type partdInputs struct {
	bases []*graph.Graph     // the stored meshes: the harness's own copies
	pool  []*stored          // the stored meshes, uploaded during set-up
	fresh [clients][]*stored // each client's new graphs, in upload order
}

func newPartdInputs(sc scale, seed int64) (*partdInputs, error) {
	in := &partdInputs{}
	for i, n := range sc.poolSizes {
		g := gen.Mesh(n, seed*100+int64(i))
		s, err := newStored(g, i, 0)
		if err != nil {
			return nil, err
		}
		in.bases = append(in.bases, g)
		in.pool = append(in.pool, s)
	}
	for c := range in.fresh {
		for j := 0; j < sc.newGraphs; j++ {
			base := j % len(in.bases)
			skew := seed*1_000_000 + int64(c)*100_000 + int64(j) + 1
			s, err := newStored(gen.SkewWeights(in.bases[base], skew, skewMaxWeight), base, skew)
			if err != nil {
				return nil, err
			}
			in.fresh[c] = append(in.fresh[c], s)
		}
	}
	return in, nil
}

func newStored(g *graph.Graph, base int, skew int64) (*stored, error) {
	var b strings.Builder
	if err := gio.WriteMETIS(&b, g); err != nil {
		return nil, err
	}
	return &stored{payload: b.String(), nodes: g.NumNodes(), base: base, skew: skew}, nil
}

// graphOf returns the harness's own copy of s.
func (in *partdInputs) graphOf(s *stored) *graph.Graph {
	if s.skew == 0 {
		return in.bases[s.base]
	}
	return gen.SkewWeights(in.bases[s.base], s.skew, skewMaxWeight)
}

// daemon is one partd child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logs    bytes.Buffer // read only after the process has exited
	done    chan struct{}
	waitErr error
	stopped bool
	rssMiB  float64
}

// startDaemon runs partd with its default flags on a loopback port and
// returns once GET /v1/healthz answers.
func startDaemon(partdPath, dir string) (*daemon, error) {
	if partdPath == "" {
		return nil, fmt.Errorf("partd-mixed needs -partd, the path of a partd binary")
	}
	addrFile := filepath.Join(dir, "partd.addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(partdPath, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	d.cmd.SysProcAttr = diesWithParent()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting partd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		// The address file may be half written; a failed probe just retries.
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			url := "http://" + string(addr)
			if resp, err := hc.Get(url + "/v1/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.url = url
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("partd exited during start-up (%v):\n%s", d.waitErr, d.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("partd did not answer /v1/healthz within 30s:\n%s", d.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down gracefully (SIGTERM, then SIGKILL after 30s),
// waits for it, and records its peak resident set. Calling it again is a
// no-op.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	// The process may already be gone; Wait below reports how it ended.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if d.waitErr != nil {
		return fmt.Errorf("partd exited with %v:\n%s", d.waitErr, d.logs.String())
	}
	return nil
}

// newClient returns a client on its own connection pool, so each closed-loop
// client holds its own connection.
func newClient(d *daemon, name string) (*client.Client, *http.Transport) {
	t := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(d.url, client.WithName(name), client.WithHTTPClient(&http.Client{Transport: t})), t
}

// setUp starts a daemon and uploads the stored meshes: the time until partd
// can serve the workload.
func setUp(ctx context.Context, cfg *config, in *partdInputs, dir string, tr *tracer) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.partd, dir)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	cl, t := newClient(d, "bench-setup")
	defer t.CloseIdleConnections()
	for _, s := range in.pool {
		resp, err := cl.UploadGraph(ctx, "metis", s.payload)
		if err == nil && resp.Nodes != s.nodes {
			err = fmt.Errorf("stored %d nodes, uploaded %d", resp.Nodes, s.nodes)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("uploading a stored mesh: %w", err)
		}
		s.hash = resp.Hash
	}
	t2 := time.Now()
	id := tr.add(0, 0, "partd.setup", t0, t2)
	tr.add(id, 0, "partd.start_to_healthz", t0, t1)
	tr.add(id, 0, "client.upload_stored_meshes", t1, t2)
	return d, t2.Sub(t0), nil
}

// request is one step of a client's closed loop.
type request struct {
	upload bool
	fresh  bool // upload of a graph the daemon has not seen
	g      *stored
	seed   int64 // job seed
}

// clientState draws one client's request sequence. It depends only on the
// seed and on the client's own earlier requests, never on timing, so every
// run with a seed issues the same sequence for as long as it lasts.
type clientState struct {
	rng       *rand.Rand
	known     []*stored // the stored meshes, then this client's uploads
	fresh     []*stored
	nextFresh int
}

func (s *clientState) draw() request {
	if s.rng.Float64() < uploadFrac {
		if s.rng.Intn(2) == 0 && s.nextFresh < len(s.fresh) {
			g := s.fresh[s.nextFresh]
			s.nextFresh++
			return request{upload: true, fresh: true, g: g}
		}
		return request{upload: true, g: s.known[s.rng.Intn(len(s.known))]}
	}
	k := 0
	if len(s.known) > 1 {
		k = int(rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.known)-1)).Uint64())
	}
	return request{g: s.known[len(s.known)-1-k], seed: 1 + s.rng.Int63n(jobSeeds)}
}

// reply is the first result a client saw for one cache key.
type reply struct {
	digest [32]byte
	res    *service.Result
	g      *stored
}

// clientRun is what one client measured.
type clientRun struct {
	rep                                    *report
	jobMS, uploadMS, overheadMS, computeMS []float64
	firsts                                 map[string]*reply
}

func newClientRun() *clientRun {
	return &clientRun{rep: newReport(), firsts: map[string]*reply{}}
}

// checkJob checks one finished job against the harness's view of its graph
// and against the first reply seen for its cache key: cached and coalesced
// replies must be byte-identical to it.
func (cr *clientRun) checkJob(j service.JobInfo, g *stored) error {
	if j.State != service.StateDone || j.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	r := j.Result
	if len(r.Assign) != g.nodes || r.Parts != parts {
		return fmt.Errorf("job %s: %d assignments into %d parts for a %d-node graph, want %d parts", j.ID, len(r.Assign), r.Parts, g.nodes, parts)
	}
	if r.Balance > 1+algo.BalanceTolerance {
		return fmt.Errorf("job %s: balance %.4f exceeds 1+%.2f", j.ID, r.Balance, algo.BalanceTolerance)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	d := sha256.Sum256(data)
	if f, ok := cr.firsts[j.Key]; !ok {
		cr.firsts[j.Key] = &reply{digest: d, res: r, g: g}
	} else if f.digest != d {
		return fmt.Errorf("job %s: reply for key %s differs from the first reply for it", j.ID, j.Key)
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// loop runs one client's closed loop until deadline: each request is sent
// only after the previous reply arrived.
func (cr *clientRun) loop(ctx context.Context, cl *client.Client, st *clientState, id int, deadline time.Time, tr *tracer) {
	for i := 0; time.Now().Before(deadline); i++ {
		req := st.draw()
		trace := id*1_000_000 + i + 1
		t0 := time.Now()
		if req.upload {
			resp, err := cl.UploadGraph(ctx, "metis", req.g.payload)
			t1 := time.Now()
			tr.add(0, trace, "client.upload", t0, t1)
			if err == nil {
				cr.uploadMS = append(cr.uploadMS, ms(t1.Sub(t0)))
				err = st.uploaded(req, resp)
			}
			cr.rep.check(err)
			continue
		}
		resp, err := cl.SubmitBatchWait(ctx, req.g.hash, []service.JobSpec{{Algo: algoName, Parts: parts, Seed: req.seed}})
		t1 := time.Now()
		spanID := tr.add(0, trace, "op", t0, t1) // a job is partd-mixed's op
		if err == nil && len(resp.Jobs) != 1 {
			err = fmt.Errorf("one-spec batch answered with %d jobs", len(resp.Jobs))
		}
		if err == nil {
			err = cr.checkJob(resp.Jobs[0], req.g)
		}
		if err == nil {
			lat, j := t1.Sub(t0), resp.Jobs[0]
			cr.jobMS = append(cr.jobMS, ms(lat))
			if j.Cached {
				cr.overheadMS = append(cr.overheadMS, ms(lat))
			} else {
				compute := time.Duration(j.Result.ComputeNS)
				cr.overheadMS = append(cr.overheadMS, ms(lat-compute))
				cr.computeMS = append(cr.computeMS, ms(compute))
				if tr != nil {
					// Where the compute sat inside the request is unknown;
					// it is placed against the reply.
					end := tr.span(spanID).End
					tr.addNS(spanID, trace, "service.compute", end-compute.Nanoseconds(), end, true)
				}
			}
		}
		cr.rep.check(err)
	}
}

// uploaded checks an upload reply: a new graph must be new to the daemon,
// and a re-upload must return the original content address.
func (s *clientState) uploaded(req request, resp service.GraphPutResponse) error {
	if resp.Nodes != req.g.nodes {
		return fmt.Errorf("upload stored %d nodes, sent %d", resp.Nodes, req.g.nodes)
	}
	if !req.fresh {
		if resp.Hash != req.g.hash {
			return fmt.Errorf("re-upload returned %s, want the original %s", resp.Hash, req.g.hash)
		}
		return nil
	}
	if resp.Existed {
		return fmt.Errorf("new graph %s reported as already stored", resp.Hash)
	}
	req.g.hash = resp.Hash
	s.known = append(s.known, req.g)
	return nil
}

// loopResult merges the clients of one closed-loop window.
type loopResult struct {
	*clientRun
	elapsed time.Duration
}

// closedLoop drives d with the clients for window and merges what they
// measured. The clients' first replies are merged too, and must agree on
// every key both saw.
func closedLoop(ctx context.Context, d *daemon, in *partdInputs, seed int64, window time.Duration, tr *tracer) *loopResult {
	runs := make([]*clientRun, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range runs {
		runs[c] = newClientRun()
		st := &clientState{
			rng:   rand.New(rand.NewSource(seed*clients + int64(c))),
			known: append([]*stored(nil), in.pool...),
			fresh: in.fresh[c],
		}
		cl, t := newClient(d, fmt.Sprintf("bench-%d", c))
		wg.Add(1)
		go func(cr *clientRun, c int) {
			defer wg.Done()
			defer t.CloseIdleConnections()
			cr.loop(ctx, cl, st, c, start.Add(window), tr)
			if st.nextFresh == len(st.fresh) {
				fmt.Fprintf(os.Stderr, "benchmark: client %d used all %d new graphs; later uploads were re-uploads\n", c, len(st.fresh))
			}
		}(runs[c], c)
	}
	wg.Wait()
	res := &loopResult{clientRun: newClientRun(), elapsed: time.Since(start)}
	for _, cr := range runs {
		res.rep.merge(cr.rep)
		res.jobMS = append(res.jobMS, cr.jobMS...)
		res.uploadMS = append(res.uploadMS, cr.uploadMS...)
		res.overheadMS = append(res.overheadMS, cr.overheadMS...)
		res.computeMS = append(res.computeMS, cr.computeMS...)
		for key, f := range cr.firsts {
			if g, ok := res.firsts[key]; !ok {
				res.firsts[key] = f
			} else if g.digest != f.digest {
				res.rep.check(fmt.Errorf("the clients got different replies for key %s", key))
			}
		}
	}
	return res
}

// probe partitions every stored mesh with every job seed after the window
// and returns the mean cut and balance of those results, the quality half of
// the end-to-end metrics, plus the result for the largest mesh's first seed.
// The replies are checked like any other, against lr's first replies.
func probe(ctx context.Context, d *daemon, in *partdInputs, lr *loopResult) (cut, bal float64, largest *service.Result, err error) {
	cl, t := newClient(d, "bench-probe")
	defer t.CloseIdleConnections()
	specs := make([]service.JobSpec, jobSeeds)
	for i := range specs {
		specs[i] = service.JobSpec{Algo: algoName, Parts: parts, Seed: int64(i + 1)}
	}
	n := 0
	for _, s := range in.pool {
		resp, err := cl.SubmitBatchWait(ctx, s.hash, specs)
		if err == nil && len(resp.Jobs) != len(specs) {
			err = fmt.Errorf("%d-spec batch answered with %d jobs", len(specs), len(resp.Jobs))
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("quality probe: %w", err)
		}
		for _, j := range resp.Jobs {
			if err := lr.checkJob(j, s); err != nil {
				lr.rep.check(err)
				continue
			}
			lr.rep.check(nil)
			cut += j.Result.Cut
			bal += j.Result.Balance
			n++
		}
		largest = resp.Jobs[0].Result
	}
	if n == 0 {
		return 0, 0, nil, fmt.Errorf("quality probe: no job succeeded")
	}
	return cut / float64(n), bal / float64(n), largest, nil
}

// verify recomputes, on the harness's own copy of each graph, the cut and
// balance of the first reply for every key. Copies are rebuilt one graph at
// a time, so the harness never holds all of them.
func verify(in *partdInputs, lr *loopResult) {
	byGraph := map[*stored]map[string]*reply{}
	for key, f := range lr.firsts {
		if byGraph[f.g] == nil {
			byGraph[f.g] = map[string]*reply{}
		}
		byGraph[f.g][key] = f
	}
	for s, replies := range byGraph {
		g := in.graphOf(s)
		for key, f := range replies {
			p := &partition.Partition{Assign: f.res.Assign, Parts: f.res.Parts}
			err := p.Validate(g)
			if err == nil && p.CutSize(g) != f.res.Cut {
				err = fmt.Errorf("key %s: reported cut %v, recomputed %v", key, f.res.Cut, p.CutSize(g))
			}
			if b := balance(g, p); err == nil && math.Abs(b-f.res.Balance) > 1e-9*b {
				err = fmt.Errorf("key %s: reported balance %v, recomputed %v", key, f.res.Balance, b)
			}
			lr.rep.check(err)
		}
	}
}

// runPartd measures partd-mixed. Untraced, it times set-up (start plus the
// stored-mesh uploads) setupRuns times, keeps the last daemon, and runs the
// closed loop for the whole window. Traced, it runs the loop for half the
// window on one fresh daemon without tracing and for the other half on
// another with tracing, so both halves start from the same empty cache.
func runPartd(cfg *config, wl workload) (*report, error) {
	dir, err := os.MkdirTemp(cfg.dir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := newPartdInputs(scales[cfg.scale], cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating partd-mixed inputs: %w", err)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), window+2*time.Minute)
	defer cancel()
	rep := newReport()

	if !cfg.trace {
		var setups []float64
		var d *daemon
		for i := 0; i < setupRuns; i++ {
			if d != nil {
				if err := d.stop(); err != nil {
					return nil, err
				}
			}
			var took time.Duration
			if d, took, err = setUp(ctx, cfg, in, dir, nil); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		defer d.stop()
		lr := closedLoop(ctx, d, in, cfg.seed, window, nil)
		cut, bal, _, err := probe(ctx, d, in, lr)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		verify(in, lr)
		rep.merge(lr.rep)
		rep.setTiming("setup_s", setups, 1)
		rep.setTiming("op_ms_p50", lr.jobMS, 1)
		rep.set("ops_per_s", float64(len(lr.jobMS))/lr.elapsed.Seconds(), len(lr.jobMS))
		rep.set("cut", cut, 0)
		rep.set("balance", bal, 0)
		return rep, nil
	}

	d, _, err := setUp(ctx, cfg, in, dir, nil)
	if err != nil {
		return nil, err
	}
	base := closedLoop(ctx, d, in, cfg.seed, window/2, nil)
	if err := d.stop(); err != nil {
		return nil, err
	}
	verify(in, base)
	rep.merge(base.rep)

	tr := newTracer()
	d, _, err = setUp(ctx, cfg, in, dir, tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cl, t := newClient(d, "bench-stats")
	defer t.CloseIdleConnections()
	before, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	lr := closedLoop(ctx, d, in, cfg.seed, window/2, tr)
	after, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	_, _, largest, err := probe(ctx, d, in, lr)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	verify(in, lr)
	rep.merge(lr.rep)
	rep.set("process.peak_rss_mb", d.rssMiB, 0)

	n := len(lr.jobMS)
	p, ok := tailPercentile(n)
	if !ok {
		p = 50
	}
	fmt.Fprintf(os.Stderr, "benchmark: partd-mixed service.job_ms_tail is p%g of %d jobs\n", p, n)
	rep.set("service.job_ms_tail", percentile(lr.jobMS, p), n)
	rep.setTiming("service.overhead_ms_p50", lr.overheadMS, 1)
	rep.setTiming("service.compute_ms_p50", lr.computeMS, 1)
	rep.setTiming("service.upload_ms_p50", lr.uploadMS, 1)
	submitted := after.JobsSubmitted - before.JobsSubmitted
	rep.set("service.cache_hit_ratio", float64(after.CacheHits-before.CacheHits)/float64(max(submitted, 1)), 0)
	rep.set("service.coalesced", float64(after.Coalesced-before.Coalesced), 0)
	rep.set("service.cache_evictions", float64(after.CacheEvictions-before.CacheEvictions), 0)
	rep.set("service.store_parses", float64(after.Store.Parses-before.Store.Parses), 0)
	rep.set("service.store_hashes", float64(after.Store.Hashes-before.Store.Hashes), 0)
	rep.set("service.store_dedups", float64(after.Store.Dedups-before.Store.Dedups), 0)
	rep.set("service.store_evictions", float64(after.Store.Evictions-before.Store.Evictions), 0)
	rep.set("trace.overhead_frac", median(lr.jobMS)/median(base.jobMS)-1, n)

	// Outside calls on the largest stored mesh: its parse, and the GA's unit
	// costs from the daemon's partition of it.
	big := in.pool[len(in.pool)-1]
	var parseErr error
	us, calls := repeat(tr, "gio.parse", nil, func() {
		_, parseErr = gio.ReadMETIS(strings.NewReader(big.payload))
	})
	if parseErr != nil {
		return nil, parseErr
	}
	rep.set("gio.parse_s", us/1e6, calls)
	rep.set("gio.parse_mb_per_s", float64(len(big.payload))/(1<<20)/(us/1e6), calls)
	unitCosts(in.graphOf(big), &partition.Partition{Assign: largest.Assign, Parts: largest.Parts}, cfg.seed, rep, tr)
	if err := tr.write(traceFile(cfg, wl), wl.name, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}
