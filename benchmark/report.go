package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// report is what one run measured: the output checks' tally and the metric
// values. Samples holds the sample count behind each timing, which the
// printed table shows beside it.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples"`
}

func newReport() *report {
	return &report{Values: map[string]float64{}, Samples: map[string]int{}}
}

// set records a metric; n is the sample count behind a timing, 0 otherwise.
func (r *report) set(name string, v float64, n int) {
	r.Values[name] = v
	if n > 0 {
		r.Samples[name] = n
	}
}

// setTiming records the median of samples (in seconds) scaled by unit.
func (r *report) setTiming(name string, samples []float64, unit float64) {
	r.set(name, median(samples)*unit, len(samples))
}

// maxLoggedFailures bounds the failure messages one run prints.
const maxLoggedFailures = 5

// check counts one checked output and logs why it failed, if it did.
func (r *report) check(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if r.Failed <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %v\n", err)
	}
}

// merge adds another run's check tally into r.
func (r *report) merge(o *report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the run as a table, one metric per line with its unit and
// sample count, and then the result as one JSON line. It prints every
// end-to-end metric (traced false) or every per-layer metric (traced true);
// a per-layer metric the workload did not set is a layer that did not run,
// and prints as 0.
func emit(w io.Writer, wl workload, seed int64, traced bool, r *report) error {
	res := jsonResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	width := libWidth
	if wl.kind == "partd" {
		width = runtime.NumCPU()
	}
	fmt.Fprintf(w, "# workload %s  seed %d  width %d  trace %v  checks %d/%d passed\n",
		wl.name, seed, width, traced, r.Attempted-r.Failed, r.Attempted)
	for _, d := range metricDefs {
		if d.perLayer != traced {
			continue
		}
		v, ok := r.Values[d.name]
		if !ok && !d.perLayer {
			return fmt.Errorf("workload %s did not measure %s", wl.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s = %v", wl.name, d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		n := ""
		if s := r.Samples[d.name]; s > 0 {
			n = fmt.Sprintf("n=%d", s)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s %s\n", d.name, v, d.unit, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
