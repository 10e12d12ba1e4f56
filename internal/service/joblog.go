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
// first — and compacts the file on open when it must, so a crashed or
// long-lived predecessor cannot hand the new process an oversized log. A
// clean log (at most maxRecords records, no skipped line, and empty or
// ending in a newline) is appended to as it stands.
func OpenJobLog(path string, maxRecords int) (*JobLog, []JobInfo, error) {
	if maxRecords <= 0 {
		maxRecords = DefaultJobLogMax
	}
	l := &JobLog{path: path, max: maxRecords}
	records, clean := l.readAll()
	if len(records) > maxRecords {
		records = records[len(records)-maxRecords:]
		clean = false
	}
	if !clean {
		if err := l.rewrite(records); err != nil {
			return nil, nil, fmt.Errorf("service: job log %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: job log %s: %w", path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.count = len(records)
	return l, records, nil
}

// maxJobLogLine bounds one line of the job log. A longer line is skipped
// like a malformed one; the records after it are kept.
const maxJobLogLine = 4 << 20

// readAll parses every well-formed record in the file; malformed lines (a
// torn final write from a crash) and lines over maxJobLogLine are skipped,
// never fatal — the log is an availability nicety and must not block a
// restart. clean reports that the file could be appended to as it stands:
// it is missing, or it was read to the end without skipping a line and is
// empty or ends in a newline (so an append cannot join a torn record).
func (l *JobLog) readAll() (out []JobInfo, clean bool) {
	f, err := os.Open(l.path)
	if err != nil {
		return nil, os.IsNotExist(err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	clean = true
	var line []byte
	long := false // the current line has passed maxJobLogLine
	for {
		chunk, err := r.ReadSlice('\n')
		if len(line)+len(chunk) > maxJobLogLine {
			long = true
		}
		if !long {
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if long || len(line) > 0 {
			var rec JobInfo
			if !long && json.Unmarshal(line, &rec) == nil && rec.ID != "" {
				out = append(out, rec)
			} else {
				clean = false
			}
		}
		if err != nil {
			// The last line ends at the end of the file: unless it is
			// empty, its newline is missing.
			return out, clean && err == io.EOF && !long && len(line) == 0
		}
		line, long = line[:0], false
	}
}

// rewrite replaces the file's contents with exactly records, atomically via
// a synced temporary file and a rename, so a crash mid-compaction leaves
// the old log intact.
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
	if err := f.Sync(); err != nil {
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
	records, _ := l.readAll()
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
