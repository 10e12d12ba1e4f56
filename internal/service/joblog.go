package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JobLog is the bounded persistent job history: one JSONL line per job that
// reaches a terminal state (done, failed, cancelled), so a restarted daemon
// still answers GET /v1/jobs/{id} for recently finished work instead of
// returning 404s for every job the previous process ran.
//
// Records carry the job's metadata and result metrics but never the
// assignment vector — a 100k-node assign is ~300 KB of JSON, which would
// turn a bounded log into an unbounded disk liability; the content-addressed
// result cache recomputes a dropped assign for the price of a cache key.
//
// The log is bounded by record count: once the file holds 2x the bound it is
// compacted in place down to the newest bound records, so steady-state disk
// use is O(bound) regardless of how many jobs the daemon ever ran.
type JobLog struct {
	mu    sync.Mutex
	path  string
	max   int
	f     *os.File
	w     *bufio.Writer
	count int // lines currently in the file
}

// DefaultJobLogMax is the record bound used when OpenJobLog is given a
// non-positive one.
const DefaultJobLogMax = 1024

// OpenJobLog opens (creating if needed) the JSONL job log at path, bounded
// to maxRecords (<= 0 selects DefaultJobLogMax). It returns the restored
// records — the newest maxRecords terminal jobs from previous runs, oldest
// first — and compacts the file on open, so a crashed or long-lived
// predecessor cannot hand the new process an oversized log.
func OpenJobLog(path string, maxRecords int) (*JobLog, []JobInfo, error) {
	if maxRecords <= 0 {
		maxRecords = DefaultJobLogMax
	}
	l := &JobLog{path: path, max: maxRecords}
	records := l.readAll()
	if len(records) > maxRecords {
		records = records[len(records)-maxRecords:]
	}
	if err := l.rewrite(records); err != nil {
		return nil, nil, fmt.Errorf("service: job log %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: job log %s: %w", path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.count = len(records)
	return l, records, nil
}

// readAll parses every well-formed record in the file; malformed lines (a
// torn final write from a crash) are skipped, never fatal — the log is an
// availability nicety and must not block a restart.
func (l *JobLog) readAll() []JobInfo {
	f, err := os.Open(l.path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []JobInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var rec JobInfo
		if err := json.Unmarshal(sc.Bytes(), &rec); err == nil && rec.ID != "" {
			out = append(out, rec)
		}
	}
	return out
}

// rewrite replaces the file's contents with exactly records, atomically via
// a rename so a crash mid-compaction leaves the old log intact.
func (l *JobLog) rewrite(records []JobInfo) error {
	tmp := l.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}

// strip returns info without its assignment vector (see the type comment for
// why the log never persists assigns).
func stripAssign(info JobInfo) JobInfo {
	if info.Result != nil {
		r := *info.Result
		r.Assign = nil
		info.Result = &r
	}
	return info
}

// Append persists one terminal job record, compacting the file back to the
// bound when it has grown to twice it. Append never fails the caller: a
// full disk degrades the log, not the daemon.
func (l *JobLog) Append(info JobInfo) {
	if l == nil {
		return
	}
	rec := stripAssign(info)
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(l.w)
	if err := enc.Encode(&rec); err != nil {
		return
	}
	l.w.Flush()
	l.count++
	if l.count >= 2*l.max {
		l.compactLocked()
	}
}

// compactLocked rewrites the file down to the newest max records and reopens
// it for append. l.mu must be held.
func (l *JobLog) compactLocked() {
	l.f.Close()
	records := l.readAll()
	if len(records) > l.max {
		records = records[len(records)-l.max:]
	}
	if err := l.rewrite(records); err != nil {
		// Leave the oversized file in place; the next compaction retries.
		records = nil
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		// Without a file handle the log goes dark but the daemon lives on.
		l.f, l.w = nil, bufio.NewWriter(io.Discard)
		return
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.count = len(records)
}

// Close flushes and closes the underlying file.
func (l *JobLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Flush()
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
