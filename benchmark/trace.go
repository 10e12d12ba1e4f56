package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed interval of a traced run, in nanoseconds since the run
// began. The spans of one op share a trace id, and parent names the
// enclosing span (0 for a root). The harness records spans only around its
// own calls into the program. The phases inside a call (multilevel.Stats,
// partd's compute_ns) arrive as durations without start times, so those
// spans are laid end to end inside their parent and marked synthetic.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Trace     int    `json:"trace"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil instead of branching. It is safe
// for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span measured with the wall clock and returns its id.
func (t *tracer) add(parent, trace int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNS(parent, trace, name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), false)
}

func (t *tracer) addNS(parent, trace int, name string, start, end int64, synthetic bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Synthetic: synthetic})
	return id
}

// phase is a named duration reported by the program.
type phase struct {
	name string
	d    time.Duration
}

// layout records phases as synthetic children of parent, end to end from
// start, and returns their ids in order.
func (t *tracer) layout(parent, trace int, start int64, phases []phase) []int {
	ids := make([]int, len(phases))
	for i, p := range phases {
		end := start + p.d.Nanoseconds()
		ids[i] = t.addNS(parent, trace, p.name, start, end, true)
		start = end
	}
	return ids
}

// span returns the recorded span with id.
func (t *tracer) span(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// traceDoc is what a traced run writes. Width is the GOMAXPROCS of the
// process that recorded the spans.
type traceDoc struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Width    int    `json:"width"`
	Spans    []span `json:"spans"`
}

// write saves the spans to path, creating its directory.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceDoc{Workload: workload, Seed: seed, Width: runtime.GOMAXPROCS(0), Spans: t.spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
