// Command parallel runs the distributed-population GA (DPGA) of the paper's
// §3.4 as a parallel program. dpga is the one GA driver: within an epoch the
// islands step concurrently over internal/par, every few generations they
// exchange their best individuals along a 4-dimensional hypercube, and a
// single island spends the same width on evaluating its offspring instead.
//
// The example runs the same total budget with 1, 4, and 16 islands, once at
// width 1 and once at width GOMAXPROCS, reports the cut and wall-clock time
// of both, and checks that the two widths give the same partition: island
// RNGs are independent, migration happens at barriers, and evaluation is
// pure, so the width changes only the time.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"runtime"
	"slices"
	"time"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/ibp"
	"repro/internal/partition"
)

func main() {
	g := gen.PaperGraph(279)
	const parts = 8
	const generations = 150
	seed, err := ibp.Partition(g, parts, ibp.ShuffledRowMajor)
	if err != nil {
		log.Fatal(err)
	}
	wide := runtime.GOMAXPROCS(0)
	fmt.Printf("mesh: %d nodes, %d edges; GOMAXPROCS=%d\n\n",
		g.NumNodes(), g.NumEdges(), wide)

	run := func(islands, width int) (*partition.Partition, time.Duration) {
		start := time.Now()
		m, err := dpga.New(g, dpga.Config{
			Base: ga.Config{
				Parts:       parts,
				PopSize:     320,
				Seeds:       []*partition.Partition{seed},
				HillClimb:   true,
				EvalWorkers: width,
				Seed:        13,
			},
			Islands: islands,
		})
		if err != nil {
			log.Fatal(err)
		}
		return m.Run(generations).Part, time.Since(start)
	}

	for _, islands := range []int{1, 4, 16} {
		serial, tSerial := run(islands, 1)
		parallel, tParallel := run(islands, wide)
		if !slices.Equal(serial.Assign, parallel.Assign) {
			log.Fatalf("islands=%d: width %d diverged from width 1", islands, wide)
		}
		fmt.Printf("islands=%2d  population=320  gens=%d  ->  cut=%.0f  wall: width 1 %s, width %d %s\n",
			islands, generations, serial.CutSize(g),
			tSerial.Round(time.Millisecond), wide, tParallel.Round(time.Millisecond))
	}
	fmt.Println("\nidentical partitions at every width: one code path, deterministic under concurrency.")
}
