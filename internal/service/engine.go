// Package service turns the algorithm registry into a long-running
// partition-as-a-service job engine: callers store a graph once, submit
// batches of (algorithm, options) requests against it, a bounded worker
// pool executes them, and a content-addressed LRU cache returns
// bit-identical results for repeated requests without recomputing.
//
// There is one submission path. Engine.Submit takes a stored graph and a
// batch of requests; POST /v1/jobs calls it with the batch it names, and the
// legacy POST /v1/partition stores its inline graph and calls it with a
// one-request batch. Submit checks every request before queueing any: the
// registry's constraints through algo.Check (a known algorithm, parts in
// [1, 65536], coordinates, power-of-two parts, the objective), plus the
// engine's own policy that parts may not exceed the graph's nodes. A waiting
// Submit waits on the jobs it holds, so it never loses a member to
// job-history eviction, however many jobs other requests submit meanwhile.
//
// Determinism is what makes the cache sound. Every registered partitioner is
// deterministic for a fixed Options.Seed, and the Workers/EvalWorkers knobs
// are pure speed knobs (bit-identical results for any value — the
// internal/par contract), so the cache key is (graph content hash, algorithm
// name, normalized options) with the speed knobs normalized away. Two
// requests with equal keys therefore have equal answers, no matter which
// pool worker computes them or how wide the pool is.
//
// Identical requests in flight are coalesced: the first computes, the rest
// attach to the same computation and are reported as cache hits. This is
// what bounds the cost of a thundering herd of identical requests to one
// partition run.
//
// Jobs are cancellable: a queued job dies immediately, a running one has its
// context cancelled and the algorithm returns at its next checkpoint
// (between refinement passes — see algo.Options.Ctx). Cancelling one job of
// a coalesced group only detaches that job; the computation itself is
// cancelled only when its last interested job is gone, so one client's
// DELETE can never destroy a result another client is waiting on. Cancelled
// computations never populate the result cache.
package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/par"
)

// Config sizes an Engine.
type Config struct {
	// Workers bounds how many partition computations run concurrently
	// (<= 0 selects GOMAXPROCS, like every Workers knob in this repository).
	Workers int
	// CacheBytes bounds the completed-result LRU cache by total payload
	// bytes — assignment vectors plus per-entry overhead, see entryBytes —
	// rather than by entry count, so the daemon's cache memory is a real
	// budget instead of a function of graph sizes (<= 0 selects 64 MiB).
	CacheBytes int64
	// JobParallelism is the Workers/EvalWorkers width each computation runs
	// with (<= 0 divides GOMAXPROCS evenly across the pool). It never
	// affects results, only speed.
	JobParallelism int
	// JobHistory bounds how many jobs remain pollable via GetJob (<= 0
	// selects 4096). Submitting past the bound forgets the oldest finished
	// jobs — without this a long-running daemon's job table (and the result
	// slices it pins) would grow with total request count.
	JobHistory int
	// MaxQueue bounds how many computations may wait for a worker (<= 0
	// selects 256). Every queued entry pins its parsed graph, so an
	// unbounded queue would let async submissions grow memory without
	// limit; past the bound Submit fails fast with an overloaded error
	// (backpressure) instead of accepting work it cannot hold.
	MaxQueue int
	// Log, when non-nil, receives one record per job that reaches a
	// terminal state, giving the daemon a bounded persistent job history.
	Log *JobLog
	// Restore pre-populates the job table with terminal jobs from a
	// previous run (what OpenJobLog returned), so GET /v1/jobs/{id} keeps
	// answering across a restart. Restored jobs count against JobHistory
	// and are never re-logged.
	Restore []JobInfo
}

// ErrOverloaded is returned (wrapped) by Submit when the computation queue
// is full; the HTTP layer maps it to 429.
var ErrOverloaded = fmt.Errorf("service: computation queue is full")

// ErrNoJob is returned (wrapped) by WaitJob and CancelJob for unknown or
// history-evicted job ids; the HTTP layer maps it to 404.
var ErrNoJob = fmt.Errorf("service: no such job")

// ErrEngineClosed is the typed shutdown error: Submit after Close fails
// with it, and queued jobs that Close failed carry it, so a waiter woken by
// shutdown can tell "the daemon is going away" (retry elsewhere) from "my
// request was bad" (don't retry). The HTTP layer maps it to a structured
// 503 with code "engine_closed".
var ErrEngineClosed = fmt.Errorf("service: engine is shut down (engine_closed)")

// ErrCancelled marks a job terminated by CancelJob rather than by its own
// completion or failure.
var ErrCancelled = fmt.Errorf("service: job cancelled")

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether s is a final state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Result is a completed partition with the quality metrics the benchmark
// suite reports.
type Result struct {
	Assign      Assignment `json:"assign"`
	Parts       int        `json:"parts"`
	Cut         float64    `json:"cut"`
	MaxPartCut  float64    `json:"max_part_cut"`
	CommVolume  float64    `json:"comm_volume"`
	ImbalanceSq float64    `json:"imbalance_sq"`
	Balance     float64    `json:"balance"`
	// ComputeNS is the wall time of the computation that produced this
	// result. Cache hits share the producing run's Result, so they carry
	// its original compute time — the job's own cost for a hit is ~0.
	ComputeNS int64 `json:"compute_ns"`
}

// JobInfo is an immutable snapshot of a job.
type JobInfo struct {
	ID      string  `json:"id"`
	State   State   `json:"state"`
	Algo    string  `json:"algo"`
	Parts   int     `json:"parts"`
	Seed    int64   `json:"seed"`
	Key     string  `json:"key"`    // content-addressed cache key
	Cached  bool    `json:"cached"` // served by the cache or coalesced onto an in-flight computation
	Error   string  `json:"error,omitempty"`
	Created int64   `json:"created_unix_ms"`
	Result  *Result `json:"result,omitempty"`
}

// Stats are the engine's instrumentation counters.
type Stats struct {
	Workers            int    `json:"workers"`
	JobsSubmitted      uint64 `json:"jobs_submitted"`
	JobsQueued         int    `json:"jobs_queued"`
	JobsRunning        int    `json:"jobs_running"`
	JobsDone           uint64 `json:"jobs_done"`
	JobsFailed         uint64 `json:"jobs_failed"`
	JobsCancelled      uint64 `json:"jobs_cancelled"` // jobs terminated by CancelJob
	CacheHits          uint64 `json:"cache_hits"`     // completed-result hits
	Coalesced          uint64 `json:"coalesced"`      // joined an identical in-flight computation
	CacheMisses        uint64 `json:"cache_misses"`   // requests that had to compute
	CacheEvictions     uint64 `json:"cache_evictions"`
	CacheEntries       int    `json:"cache_entries"`
	CacheBytes         int64  `json:"cache_bytes"`          // payload bytes currently retained
	CacheCapacityBytes int64  `json:"cache_capacity_bytes"` // the configured budget
}

// RequestError is a caller mistake (unknown algorithm, constraint
// violation, invalid part count) as opposed to an internal failure; the
// HTTP layer maps it to a structured 4xx response.
type RequestError struct {
	Code    string // stable machine-readable code
	Message string
	Spec    int // index of the refused request in a Submit batch
}

func (e *RequestError) Error() string { return e.Message }

func reqErr(code, format string, args ...any) *RequestError {
	return &RequestError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// lruEntryOverhead approximates the per-entry bookkeeping beyond the result
// payload: the entry/Result structs, the duplicated key (map key + item),
// the list element, and map slot overhead.
const lruEntryOverhead = 256

// entryBytes is the payload-size accounting of one completed entry: the
// assignment vector dominates (2 bytes per node), plus the key and the fixed
// structural overhead.
func entryBytes(key string, ent *entry) int64 {
	var payload int64
	if ent.result != nil {
		payload = 2 * int64(len(ent.result.Assign))
	}
	return payload + 2*int64(len(key)) + lruEntryOverhead
}

// entry is one distinct computation, shared by every job with the same key.
type entry struct {
	key    string
	algo   string
	opts   algo.Options // normalized; execution widths applied at run time
	graph  *graph.Graph // released once the computation finishes
	state  State
	result *Result
	err    error
	done   chan struct{} // closed on completion, for waiters

	// Cancellation plumbing. ctx is threaded into the algorithm run; cancel
	// fires it. refs counts attached live jobs — the computation is only
	// cancelled when the last of them is (a coalesced sibling's result must
	// survive any other client's DELETE). jobs lists every attached job for
	// terminal-state logging.
	ctx    context.Context
	cancel context.CancelFunc
	refs   int
	jobs   []*job
}

// job is one submitted request; many jobs may share one entry.
type job struct {
	id        string
	created   time.Time
	cached    bool
	entry     *entry
	cancelled bool          // this job was individually cancelled
	cancelCh  chan struct{} // closed on individual cancellation, for waiters
	logged    bool          // terminal record already written to the job log
}

// Engine is the job engine. Create with New, stop with Close.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // queue became non-empty, or the engine closed
	queue    []*entry   // FIFO of entries awaiting a worker
	jobs     map[string]*job
	jobOrder []string // job ids in creation order, for history eviction
	inflight map[string]*entry
	cache    *lru[*entry]
	seq      uint64
	running  int
	closed   bool
	wg       sync.WaitGroup

	jobsSubmitted, jobsDone, jobsFailed, jobsCancelled uint64
	hits, coalesced, misses, evictions                 uint64
}

// New starts an Engine with cfg's worker pool.
func New(cfg Config) *Engine {
	cfg.Workers = par.Workers(cfg.Workers)
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 4096
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	if cfg.JobParallelism <= 0 {
		cfg.JobParallelism = par.Workers(0) / cfg.Workers
		if cfg.JobParallelism < 1 {
			cfg.JobParallelism = 1
		}
	}
	e := &Engine{
		cfg:      cfg,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*entry),
		cache:    newLRU[*entry](cfg.CacheBytes),
	}
	e.cond = sync.NewCond(&e.mu)
	e.restore(cfg.Restore)
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// restore seeds the job table from a previous run's terminal records. The id
// sequence resumes past the largest restored id, so new jobs never collide
// with restored ones. A record whose id this engine could not have issued
// (see jobSeq) is dropped: it could wrap the sequence onto restored ids.
func (e *Engine) restore(records []JobInfo) {
	for _, rec := range records {
		n, ok := jobSeq(rec.ID)
		if !ok {
			continue
		}
		e.seq = max(e.seq, n)
		if !rec.State.terminal() {
			continue
		}
		if _, dup := e.jobs[rec.ID]; dup {
			continue
		}
		ent := &entry{
			key:    rec.Key,
			algo:   rec.Algo,
			opts:   algo.Options{Parts: rec.Parts, Seed: rec.Seed},
			state:  rec.State,
			result: rec.Result,
			done:   closedChan,
		}
		if rec.Error != "" {
			ent.err = fmt.Errorf("%s", rec.Error)
		}
		j := &job{
			id:       rec.ID,
			created:  time.UnixMilli(rec.Created),
			cached:   rec.Cached,
			entry:    ent,
			cancelCh: closedChan,
			logged:   true, // already persisted by the run that produced it
		}
		if rec.State == StateCancelled {
			j.cancelled = true
		}
		e.jobs[j.id] = j
		e.jobOrder = append(e.jobOrder, j.id)
	}
	e.evictJobHistoryLocked() // every restored job is terminal
}

// jobSeq returns the sequence number of a job id: "j" and decimal digits
// below 2^63, so that 2^63 further jobs fit before the counter could wrap
// onto an id it has issued. Every id newJobLocked makes qualifies.
func jobSeq(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	n, err := strconv.ParseUint(digits, 10, 63)
	return n, ok && err == nil
}

// closedChan is a pre-closed channel shared by everything that is born
// terminal (restored jobs, cache hits never wait).
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Request is one member of a submission: a registered algorithm and its
// options.
type Request struct {
	Algo string
	Opts algo.Options
}

// Submit checks every request (see checkRequest) before submitting any, so
// a batch is accepted or refused whole; a refusal is a *RequestError whose
// Spec is the request's index. Each request is answered from the result
// cache, attached to an identical in-flight computation, or queued. If the
// queue refuses one midway (ErrOverloaded), those already submitted are
// cancelled. Without wait, Submit returns the jobs' first snapshots; with
// wait, it returns once every job is terminal or ctx is done, waiting on
// the jobs it holds rather than on their ids.
func (e *Engine) Submit(ctx context.Context, sg *StoredGraph, reqs []Request, wait bool) ([]JobInfo, error) {
	for i, r := range reqs {
		if re := checkRequest(sg.Graph, r); re != nil {
			re.Spec = i
			return nil, re
		}
	}
	jobs, infos, err := e.enqueue(sg, reqs)
	if err != nil || !wait {
		return infos, err
	}
	for i, j := range jobs {
		if infos[i], err = e.waitOn(ctx, j); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// checkRequest is algo.Check plus the engine's own policy: parts may not
// exceed the graph's nodes. That policy stays out of algo.Run, whose
// multilevel pipeline solves coarsest graphs smaller than the part count.
func checkRequest(g *graph.Graph, r Request) *RequestError {
	if re := algo.Check(g, r.Algo, r.Opts); re != nil {
		return &RequestError{Code: re.Code, Message: re.Message}
	}
	if r.Opts.Parts > g.NumNodes() {
		return reqErr("bad_parts", "parts %d exceeds the graph's %d nodes", r.Opts.Parts, g.NumNodes())
	}
	return nil
}

// waitOn blocks until j reaches a terminal state — its computation finishes
// or the job is individually cancelled — or ctx is done.
func (e *Engine) waitOn(ctx context.Context, j *job) (JobInfo, error) {
	select {
	case <-j.entry.done:
	case <-j.cancelCh:
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked(j), nil
}

// enqueue submits every request of a checked batch under one hold of e.mu,
// returning the jobs and their first snapshots.
func (e *Engine) enqueue(sg *StoredGraph, reqs []Request) ([]*job, []JobInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, nil, fmt.Errorf("%w: not accepting new jobs", ErrEngineClosed)
	}
	jobs := make([]*job, 0, len(reqs))
	infos := make([]JobInfo, 0, len(reqs))
	for _, r := range reqs {
		j, err := e.submitLocked(sg, r)
		if err != nil {
			// Keep the batch all-or-nothing: cancel what it already
			// submitted. Cache hits are finished, so they refuse
			// (job_finished) and stay as they are.
			for _, j := range jobs {
				_ = e.cancelLocked(j)
			}
			return nil, nil, err
		}
		jobs = append(jobs, j)
		infos = append(infos, e.snapshotLocked(j))
	}
	return jobs, infos, nil
}

// submitLocked answers one request from the cache, attaches it to an
// identical in-flight computation, or queues a new computation. e.mu must
// be held.
func (e *Engine) submitLocked(sg *StoredGraph, r Request) (*job, error) {
	opts := normalizeOptions(r.Opts)
	key := cacheKeyFromHash(sg.Hash, r.Algo, opts)
	if ent, ok := e.cache.get(key); ok {
		e.hits++
		j := e.newJobLocked(ent, true)
		e.logJobLocked(j) // born terminal
		return j, nil
	}
	if ent, ok := e.inflight[key]; ok {
		e.coalesced++
		ent.refs++
		return e.newJobLocked(ent, true), nil
	}
	// A new computation needs a queue slot; every queued entry pins its
	// parsed graph, so refuse (backpressure) rather than queue without
	// bound. Checked before the job record is created: an overloaded
	// request leaves no trace.
	if len(e.queue) >= e.cfg.MaxQueue {
		return nil, fmt.Errorf("%w (%d computations waiting); retry later", ErrOverloaded, len(e.queue))
	}
	e.misses++
	ctx, cancel := context.WithCancel(context.Background())
	ent := &entry{
		key:    key,
		algo:   r.Algo,
		opts:   opts,
		graph:  sg.Graph,
		state:  StateQueued,
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
		refs:   1,
	}
	e.inflight[key] = ent
	e.queue = append(e.queue, ent)
	e.cond.Signal()
	return e.newJobLocked(ent, false), nil
}

// newJobLocked records a new job on ent. A job on a live entry is also
// listed on it, so the worker logs it when the entry finishes. e.mu must be
// held.
func (e *Engine) newJobLocked(ent *entry, cached bool) *job {
	e.jobsSubmitted++
	e.seq++
	j := &job{
		id:       fmt.Sprintf("j%08d", e.seq),
		created:  time.Now(),
		cached:   cached,
		entry:    ent,
		cancelCh: make(chan struct{}),
	}
	if !ent.state.terminal() {
		ent.jobs = append(ent.jobs, j)
	}
	e.jobs[j.id] = j
	e.jobOrder = append(e.jobOrder, j.id)
	e.evictJobHistoryLocked()
	return j
}

// evictJobHistoryLocked forgets the oldest finished jobs beyond the history
// bound. Queued and running jobs are never evicted (clients are still
// waiting on them), so under a backlog deeper than the bound the table
// temporarily exceeds it — memory there is already bounded by the queue
// itself. e.mu must be held.
func (e *Engine) evictJobHistoryLocked() {
	for len(e.jobs) > e.cfg.JobHistory && len(e.jobOrder) > 0 {
		id := e.jobOrder[0]
		j, ok := e.jobs[id]
		if ok && !j.cancelled && !j.entry.state.terminal() {
			return // oldest job still active; nothing older to free
		}
		e.jobOrder = e.jobOrder[1:]
		delete(e.jobs, id)
	}
}

// GetJob returns a job snapshot. Jobs older than Config.JobHistory finished
// submissions are forgotten and report not-found.
func (e *Engine) GetJob(id string) (JobInfo, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return e.snapshotLocked(j), true
}

// WaitJob blocks until the job reaches a terminal state (done, failed, or
// cancelled) or ctx is cancelled, and returns the final snapshot. The job
// reference is resolved once up front, so history eviction during the wait
// cannot lose the result; an individually cancelled job wakes its waiters
// promptly even when its (shared) computation keeps running for someone
// else. Unknown ids fail with an error wrapping ErrNoJob.
func (e *Engine) WaitJob(ctx context.Context, id string) (JobInfo, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: %q", ErrNoJob, id)
	}
	return e.waitOn(ctx, j)
}

// CancelJob cancels one job. A queued job (whose computation no one else
// wants) is failed immediately without ever running; a running computation
// has its context cancelled and stops at the algorithm's next checkpoint; a
// job coalesced onto a computation other jobs still want merely detaches —
// the computation and its eventual cached result survive. Cancelling an
// already-cancelled job is a no-op returning the current snapshot;
// cancelling a finished job returns its snapshot plus a *RequestError with
// code "job_finished" (there is nothing left to cancel).
func (e *Engine) CancelJob(id string) (JobInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: %q", ErrNoJob, id)
	}
	err := e.cancelLocked(j)
	return e.snapshotLocked(j), err
}

// cancelLocked cancels j as CancelJob describes. e.mu must be held.
func (e *Engine) cancelLocked(j *job) error {
	if j.cancelled {
		return nil
	}
	ent := j.entry
	if ent.state.terminal() {
		return reqErr("job_finished", "job %q already %s; nothing to cancel", j.id, ent.state)
	}
	j.cancelled = true
	close(j.cancelCh)
	e.jobsCancelled++
	ent.refs--
	if ent.refs <= 0 {
		// Last interested job gone: kill the computation. Drop the key from
		// the in-flight index either way, so a fresh identical submission
		// starts a fresh computation instead of attaching to a dying one.
		delete(e.inflight, ent.key)
		switch ent.state {
		case StateQueued:
			e.removeQueuedLocked(ent)
			ent.state = StateCancelled
			ent.err = ErrCancelled
			ent.graph = nil
			close(ent.done)
		case StateRunning:
			ent.cancel() // the worker observes ctx and publishes the cancel
		}
	}
	e.logJobLocked(j)
	return nil
}

// removeQueuedLocked drops ent from the FIFO. e.mu must be held.
func (e *Engine) removeQueuedLocked(ent *entry) {
	for i, q := range e.queue {
		if q == ent {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// Workers returns the resolved worker-pool width.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Workers:            e.cfg.Workers,
		JobsSubmitted:      e.jobsSubmitted,
		JobsQueued:         len(e.queue),
		JobsRunning:        e.running,
		JobsDone:           e.jobsDone,
		JobsFailed:         e.jobsFailed,
		JobsCancelled:      e.jobsCancelled,
		CacheHits:          e.hits,
		Coalesced:          e.coalesced,
		CacheMisses:        e.misses,
		CacheEvictions:     e.evictions,
		CacheEntries:       e.cache.len(),
		CacheBytes:         e.cache.bytes,
		CacheCapacityBytes: e.cfg.CacheBytes,
	}
}

// Close stops the engine: queued-but-unstarted computations fail with
// ErrEngineClosed (their waiters wake immediately — Close never strands a
// waiting Submit), running ones are allowed to finish, and the worker pool
// drains before Close returns. Submit after Close fails with
// ErrEngineClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	for _, ent := range e.queue {
		ent.state = StateFailed
		ent.err = fmt.Errorf("%w before the job ran", ErrEngineClosed)
		ent.graph = nil
		delete(e.inflight, ent.key)
		e.jobsFailed++
		close(ent.done)
		for _, j := range ent.jobs {
			e.logJobLocked(j)
		}
	}
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// worker is one pool goroutine: pop, compute, publish, repeat.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		ent := e.queue[0]
		e.queue = e.queue[1:]
		ent.state = StateRunning
		e.running++
		e.mu.Unlock()

		res, err := e.compute(ent)

		e.mu.Lock()
		e.running--
		if e.inflight[ent.key] == ent {
			delete(e.inflight, ent.key)
		}
		switch {
		case ent.ctx.Err() != nil:
			// Cancelled mid-run: the algorithm returned early (possibly with
			// a valid partial partition). The result is discarded, never
			// cached — a cancelled job must not poison the content-addressed
			// cache with a half-refined answer.
			ent.state = StateCancelled
			ent.err = ErrCancelled
		case err != nil:
			ent.state = StateFailed
			ent.err = err
			e.jobsFailed++
		default:
			ent.state = StateDone
			ent.result = res
			e.jobsDone++
			e.evictions += uint64(e.cache.add(ent.key, ent, entryBytes(ent.key, ent)))
		}
		ent.graph = nil // the CSR arrays are the bulk of a job's footprint
		ent.cancel()    // release the context's resources
		close(ent.done)
		for _, j := range ent.jobs {
			e.logJobLocked(j)
		}
		e.mu.Unlock()
	}
}

// compute runs the actual partitioner with the entry's cancellation context
// threaded through algo.Options.Ctx, so the registered algorithms observe a
// CancelJob at their serial checkpoints. A panicking algorithm must not take
// the daemon down, so panics become failed jobs.
func (e *Engine) compute(ent *entry) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: %s panicked: %v\n%s", ent.algo, r, debug.Stack())
		}
	}()
	if ent.ctx.Err() != nil {
		return nil, ErrCancelled // cancelled while queued but already popped
	}
	opts := ent.opts
	opts.Workers = e.cfg.JobParallelism
	opts.EvalWorkers = e.cfg.JobParallelism
	opts.Ctx = ent.ctx
	g := ent.graph
	start := time.Now()
	p, err := algo.Run(g, ent.algo, opts)
	if err != nil {
		return nil, err
	}
	if ent.ctx.Err() != nil {
		return nil, ErrCancelled // the publish path re-checks ctx anyway
	}
	elapsed := time.Since(start)
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("service: %s returned an invalid partition: %w", ent.algo, err)
	}
	res = &Result{
		Assign:      p.Assign,
		Parts:       p.Parts,
		Cut:         p.CutSize(g),
		MaxPartCut:  p.MaxPartCut(g),
		CommVolume:  p.CommVolume(g),
		ImbalanceSq: p.ImbalanceSq(g),
		Balance:     p.Balance(g),
		ComputeNS:   elapsed.Nanoseconds(),
	}
	return res, nil
}

// logJobLocked appends j's terminal snapshot to the job log, once. Jobs that
// are not yet terminal (a non-cancelled job on a live entry) are skipped;
// the publish path calls again when the entry finishes. e.mu must be held.
func (e *Engine) logJobLocked(j *job) {
	if e.cfg.Log == nil || j.logged {
		return
	}
	if !j.cancelled && !j.entry.state.terminal() {
		return
	}
	j.logged = true
	e.cfg.Log.Append(e.snapshotLocked(j))
}

// snapshotLocked assembles a JobInfo; e.mu must be held. An individually
// cancelled job reports cancelled (with no result) even when the shared
// computation it had joined lives on for other jobs.
func (e *Engine) snapshotLocked(j *job) JobInfo {
	ent := j.entry
	info := JobInfo{
		ID:      j.id,
		State:   ent.state,
		Algo:    ent.algo,
		Parts:   ent.opts.Parts,
		Seed:    ent.opts.Seed,
		Key:     ent.key,
		Cached:  j.cached,
		Created: j.created.UnixMilli(),
	}
	if ent.err != nil {
		info.Error = ent.err.Error()
	}
	if ent.state == StateDone {
		info.Result = ent.result
	}
	if j.cancelled {
		info.State = StateCancelled
		info.Error = ErrCancelled.Error()
		info.Result = nil
	}
	return info
}

// normalizeOptions canonicalizes the fields that may not influence the
// result: Workers and EvalWorkers are pure speed knobs (the internal/par
// bit-identity contract), so they are zeroed out of the cache key and
// replaced by the engine's own execution width, Ctx is per-submission
// plumbing that never belongs in a key or an entry, and MultilevelStats is
// an output-only sink.
func normalizeOptions(o algo.Options) algo.Options {
	o.Workers = 0
	o.EvalWorkers = 0
	o.Ctx = nil
	o.MultilevelStats = nil
	return o
}
