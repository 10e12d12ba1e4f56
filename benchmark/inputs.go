package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Input files of the library workloads, inside the run's input directory.
const graphFile = "graph.metis"

func grownFile(i int) string { return fmt.Sprintf("grown-%d.metis", i) }
func oldFile(i int) string   { return fmt.Sprintf("old-%d.part", i) }

// writeInputs generates a library workload's inputs from seed into dir.
// Nothing here is timed, and the measured process sees only the files.
func writeInputs(wl workload, sc scale, seed int64, dir string) error {
	switch wl.name {
	case "rgg-500k":
		g := gen.RandomGeometric(rand.New(rand.NewSource(seed)), sc.rggNodes, rggRadius(sc.rggNodes))
		return writeGraph(filepath.Join(dir, graphFile), g)
	case "powerlaw-10k":
		return writeGraph(filepath.Join(dir, graphFile), gen.PowerLaw(sc.plNodes, plDegree, seed))
	case "ga-incremental":
		// The meshes are fixed, like the paper's incremental suite
		// (gen.IncrementalPair): the GA's cut on a 1.2k-node mesh swings by
		// ~12% from one mesh to the next, which would swamp the cut bound.
		// The seed drives the GA instead (see loadVariants).
		for i := 0; i < sc.gaInstances; i++ {
			s := gen.SuiteSeed + int64(i)
			base := gen.Mesh(sc.gaBase, s)
			grown := gen.Refine(base, sc.gaAdded, rand.New(rand.NewSource(s)))
			old, err := algo.Run(base, "rsb", algo.Options{Parts: parts, Seed: s})
			if err != nil {
				return fmt.Errorf("rsb partition of base mesh %d: %w", i, err)
			}
			if err := writeGraph(filepath.Join(dir, grownFile(i)), grown); err != nil {
				return err
			}
			if err := writePartition(filepath.Join(dir, oldFile(i)), old); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("workload %s has no input files", wl.name)
}

func writeGraph(path string, g *graph.Graph) error {
	return writeFile(path, func(f *os.File) error { return gio.WriteMETIS(f, g) })
}

func writePartition(path string, p *partition.Partition) error {
	return writeFile(path, func(f *os.File) error { return gio.WritePartition(f, p) })
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
