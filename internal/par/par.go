// Package par provides the small data-parallel primitive the multilevel
// pipeline and the GA are built on: a chunked parallel for-loop whose output
// is independent of the worker count and of the scheduling order.
//
// Determinism is the caller's contract, not the scheduler's: every function
// handed to For must write only to locations owned by its index range, so
// which worker claims which chunk — and in what order — cannot influence the
// result. All users in this repository (matching proposals, contraction
// merges) follow that rule, which is what lets the Workers knobs promise
// bit-identical results for any value.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS,
// anything else is returned unchanged.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// For splits [0, n) into contiguous chunks and runs fn(worker, lo, hi) over
// them on `workers` goroutines (the calling goroutine included; workers <= 0
// selects GOMAXPROCS). Chunks are claimed dynamically from an atomic
// counter, so load balances automatically; worker is a stable index in
// [0, workers) identifying the executing goroutine, for per-worker scratch.
//
// fn must confine its writes to state owned by [lo, hi) (plus worker-indexed
// scratch): under that contract the result is identical for every worker
// count and schedule.
func For(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = w(workers, n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	// ~4 chunks per worker: coarse enough to amortize the claim, fine enough
	// to balance uneven chunk costs.
	chunk := (n + 4*workers - 1) / (4 * workers)
	var next atomic.Int64
	run := func(worker int) {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(worker, lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(i)
	}
	run(0)
	wg.Wait()
}

// w caps the resolved worker count at n: a loop of n iterations can never
// use more than n workers.
func w(workers, n int) int {
	workers = Workers(workers)
	if workers > n {
		return n
	}
	return workers
}
