// Package client is the typed Go client for the partd v2 API: upload a
// graph once, fan batches of job specs out against its content address,
// wait, cancel, and read stats — with the daemon's structured errors
// surfaced as typed *APIError values instead of raw status codes.
//
// The zero-dependency wire types are shared with the server
// (internal/service), so a client and daemon built from the same tree can
// never disagree about the schema.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// APIError is a structured error response from the daemon: the HTTP status,
// the stable machine-readable code ("bad_parts", "quota_exceeded",
// "engine_closed", ...), and the human-readable message. RetryAfter is
// nonzero for quota refusals that carried a Retry-After header.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("partd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsRetryable reports whether backing off and retrying the same request can
// succeed: quota and queue refusals (429), gateway failures (502), and
// service unavailability (503) are retryable — the fleet router resolves a
// down shard to its next replica between attempts — while caller mistakes
// are not.
func (e *APIError) IsRetryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return e.Code == "unavailable"
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithName sets the X-Client identity sent with every request — the key the
// daemon's per-client quota accounting uses. Unnamed clients are keyed by
// remote address.
func WithName(name string) Option {
	return func(c *Client) { c.name = name }
}

// WithToken sets the bearer token sent with every request. Daemons running
// with -tokens refuse unauthenticated requests, and the token — not
// X-Client — then decides quota identity.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// RetryPolicy controls automatic retry of failed requests.
//
// Two failure classes are retried. Structured refusals whose
// APIError.IsRetryable is true (quota and queue 429s, gateway 502s,
// unavailability 503s) are retried for every method: the daemon refused the
// request without processing it, so resubmission is safe. Transport errors
// (connection refused, reset) are retried only for idempotent methods — or
// for POSTs too when RetryPosts is set, which is sound against partd because
// submissions are content-addressed and coalesce server-side.
//
// The delay before attempt n+1 is BaseDelay<<n capped at MaxDelay, raised to
// the server's Retry-After when one was sent.
type RetryPolicy struct {
	MaxAttempts int           // total attempts, including the first (<= 1 disables retry)
	BaseDelay   time.Duration // first backoff step (0 = 100ms)
	MaxDelay    time.Duration // backoff cap (0 = 5s)
	RetryPosts  bool          // retry POSTs on transport errors too
}

// WithRetry enables automatic retry under p.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// Client talks to one partd daemon (or a partroute fleet router — the wire
// surface is identical). It is safe for concurrent use.
type Client struct {
	base  string
	name  string
	token string
	retry RetryPolicy
	hc    *http.Client
	sleep func(ctx context.Context, d time.Duration) error // test seam
}

// New builds a client for the daemon at baseURL (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{},
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one JSON request under the retry policy. A 2xx body decodes into
// out; anything else decodes the error envelope into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = data
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt-1, lastErr)); err != nil {
				return lastErr // the context died mid-backoff; report the real failure
			}
		}
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !c.shouldRetry(method, err) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// shouldRetry classifies one failure under the policy; see RetryPolicy.
func (c *Client) shouldRetry(method string, err error) bool {
	if apiErr, ok := err.(*APIError); ok {
		return apiErr.IsRetryable()
	}
	// Transport error: the request may or may not have been processed.
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete:
		return true
	default:
		return c.retry.RetryPosts
	}
}

// backoff computes the pause after the attempt-th try (0-based): exponential
// from BaseDelay, capped at MaxDelay, raised to the server's Retry-After.
func (c *Client) backoff(attempt int, err error) time.Duration {
	base, limit := c.retry.BaseDelay, c.retry.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if limit <= 0 {
		limit = 5 * time.Second
	}
	d := base << attempt
	if d > limit || d <= 0 {
		d = limit
	}
	if apiErr, ok := err.(*APIError); ok && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	return d
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.name != "" {
		req.Header.Set("X-Client", c.name)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{Status: resp.StatusCode, Code: "unknown"}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	// Read on to EOF, up to a bound, so Close returns the connection to the
	// Transport's pool: the decoder stops at the end of its value, before a
	// chunked body's terminator, and closing an unfinished body drops the
	// connection.
	_, _ = io.CopyN(io.Discard, resp.Body, 64<<10)
	if err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// UploadGraph uploads one serialized graph (format "metis", "edgelist", or
// "text"; empty selects metis) and returns its content address. Uploading a
// graph the daemon already stores is cheap: it deduplicates server-side and
// returns the existing address with Existed set.
func (c *Client) UploadGraph(ctx context.Context, format, payload string) (service.GraphPutResponse, error) {
	var out service.GraphPutResponse
	err := c.do(ctx, http.MethodPut, "/v1/graphs", service.GraphPutRequest{Format: format, Graph: payload}, &out)
	return out, err
}

// Graph returns stored-graph metadata for a content address.
func (c *Client) Graph(ctx context.Context, hash string) (service.StoredGraph, error) {
	var out service.StoredGraph
	err := c.do(ctx, http.MethodGet, "/v1/graphs/"+hash, nil, &out)
	return out, err
}

// SubmitBatch fans specs out against a stored graph and returns immediately
// with one queued/cached JobInfo per spec.
func (c *Client) SubmitBatch(ctx context.Context, graphHash string, specs []service.JobSpec) (service.BatchResponse, error) {
	var out service.BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", service.BatchRequest{Graph: graphHash, Specs: specs}, &out)
	return out, err
}

// SubmitBatchWait is SubmitBatch but holds the request until every job in
// the batch reaches a terminal state.
func (c *Client) SubmitBatchWait(ctx context.Context, graphHash string, specs []service.JobSpec) (service.BatchResponse, error) {
	var out service.BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", service.BatchRequest{Graph: graphHash, Specs: specs, Wait: true}, &out)
	return out, err
}

// Partition is the legacy one-shot endpoint: inline graph, one spec.
func (c *Client) Partition(ctx context.Context, req service.PartitionRequest) (service.JobInfo, error) {
	var out service.JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/partition", req, &out)
	return out, err
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (service.JobInfo, error) {
	var out service.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// WaitJob blocks server-side until the job reaches a terminal state (done,
// failed, or cancelled) or ctx is cancelled.
func (c *Client) WaitJob(ctx context.Context, id string) (service.JobInfo, error) {
	var out service.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil, &out)
	return out, err
}

// Cancel cancels one job and returns its post-cancel snapshot. Cancelling
// an already-cancelled job succeeds idempotently; a finished job fails with
// an *APIError coded "job_finished".
func (c *Client) Cancel(ctx context.Context, id string) (service.JobInfo, error) {
	var out service.JobInfo
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Stats reads the daemon's engine, store, and quota counters.
func (c *Client) Stats(ctx context.Context) (service.StatsResponse, error) {
	var out service.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Algos lists the algorithm registry with declared constraints.
func (c *Client) Algos(ctx context.Context) (service.AlgosResponse, error) {
	var out service.AlgosResponse
	err := c.do(ctx, http.MethodGet, "/v1/algos", nil, &out)
	return out, err
}
