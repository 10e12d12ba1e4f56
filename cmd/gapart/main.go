// Command gapart partitions a graph with any algorithm in the unified
// registry (internal/algo) and reports the quality metrics of the result.
//
// Usage:
//
//	gapart -in mesh.g -algo dknux -parts 8 [-objective maxcut] [-gens 200]
//	gapart -in web.metis -informat metis -algo multilevel-kl -parts 8
//	gapart -mesh 10000 -algo multilevel-kl -parts 8
//	gapart -list
//
// The input graph is either read from a file (-in; METIS/Chaco, edge-list,
// or the native text format, detected from the extension or forced with
// -informat) or generated from the deterministic benchmark suite (-mesh N).
// Algorithms are selected by registry name; -list prints every name with its
// description and constraints. The partition is written as a METIS-style
// partition vector (one part id per line) with -out and rendered as SVG
// with -svg.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/viz"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input graph file (format from extension, or -informat)")
		graphPath = flag.String("graph", "", "alias for -in (kept for compatibility)")
		inFormat  = flag.String("informat", "auto", "input graph format: auto | metis | edgelist | text")
		meshN     = flag.Int("mesh", 0, "generate a benchmark mesh with this many nodes instead of reading a file")
		algoName  = flag.String("algo", "dknux", "algorithm registry name (see -list)")
		list      = flag.Bool("list", false, "print the registered algorithms and exit")
		parts     = flag.Int("parts", 4, "number of parts")
		objective = flag.String("objective", "cut", "objective: cut (total edge cut) | maxcut (worst-part cut) | commvol (communication volume); legacy total/worst accepted")
		gens      = flag.Int("gens", 0, "GA generations (0 = default)")
		pop       = flag.Int("pop", 0, "GA total population (0 = default)")
		islands   = flag.Int("islands", 0, "GA subpopulations (0 = default, 1 = single population)")
		workers   = flag.Int("evalworkers", 0, "GA width: islands stepped at once, or offspring evaluated at once for a single population (0 = auto; results are identical for any value)")
		mlWorkers = flag.Int("workers", 0, "parallel V-cycle goroutines: coarsening, contraction, projection, and colored refinement (0 = auto; results are identical for any value)")
		passes    = flag.Int("passes", 0, "refinement passes for kl/fm/multilevel (0 = algorithm default)")
		coarsest  = flag.Int("coarsest", 0, "multilevel: stop coarsening at this many nodes (0 = default)")
		lanczos   = flag.Int("lanczos", 0, "rsb: Lanczos iteration budget per Fiedler solve (0 = default 40; cost grows with the square)")
		seed      = flag.Int64("seed", 1994, "random seed")
		outPath   = flag.String("out", "", "write the partition vector (one part id per line) to this file")
		svgPath   = flag.String("svg", "", "render the partitioned graph as SVG to this file")
	)
	flag.Parse()

	if *list {
		listAlgorithms()
		return
	}

	path := *inPath
	if path == "" {
		path = *graphPath
	}
	g, err := loadGraph(path, *inFormat, *meshN)
	if err != nil {
		fatal(err)
	}
	obj, err := partition.ParseObjective(*objective)
	if err != nil {
		fatal(err)
	}

	p, err := algo.Run(g, *algoName, algo.Options{
		Parts:        *parts,
		Objective:    obj,
		Seed:         *seed,
		Generations:  *gens,
		PopSize:      *pop,
		Islands:      *islands,
		EvalWorkers:  *workers,
		RefinePasses: *passes,
		CoarsestSize: *coarsest,
		Workers:      *mlWorkers,
		LanczosIter:  *lanczos,
	})
	if err != nil {
		fatal(err)
	}
	report(g, p, obj)

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := gio.WritePartition(f, p); err != nil {
			fatal(err)
		}
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := viz.WriteSVG(f, g, p, viz.Options{ShowCutEdges: true}); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *svgPath)
	}
}

func listAlgorithms() {
	for _, name := range algo.Names() {
		p, err := algo.Get(name)
		if err != nil {
			fatal(err)
		}
		info := p.Info()
		var notes []string
		if info.NeedsCoords {
			notes = append(notes, "needs coordinates")
		}
		if info.PowerOfTwoParts {
			notes = append(notes, "parts must be 2^d")
		}
		if info.Stochastic {
			notes = append(notes, "seeded")
		}
		if len(info.Objectives) > 0 {
			var objs []string
			for _, o := range info.Objectives {
				objs = append(objs, o.FlagName())
			}
			notes = append(notes, "objectives: cut, "+strings.Join(objs, ", "))
		}
		suffix := ""
		if len(notes) > 0 {
			suffix = " [" + strings.Join(notes, ", ") + "]"
		}
		fmt.Printf("%-15s %s%s\n", name, info.Description, suffix)
	}
}

func loadGraph(path, format string, meshN int) (*graph.Graph, error) {
	switch {
	case path != "" && meshN != 0:
		return nil, fmt.Errorf("use either -in or -mesh, not both")
	case path != "":
		f, err := gio.FormatByName(format)
		if err != nil {
			return nil, err
		}
		return gio.ReadGraphFile(path, f)
	case meshN >= 3:
		return gen.Mesh(meshN, gen.SuiteSeed+int64(meshN)), nil
	default:
		return nil, fmt.Errorf("need -in FILE or -mesh N (N >= 3)")
	}
}

func report(g *graph.Graph, p *partition.Partition, obj partition.Objective) {
	fmt.Printf("nodes: %d  edges: %d  parts: %d\n", g.NumNodes(), g.NumEdges(), p.Parts)
	fmt.Printf("cut size (sum_q C(q)/2): %.0f\n", p.ObjectiveValue(g, partition.TotalCut))
	fmt.Printf("worst cut (max_q C(q)):  %.0f\n", p.ObjectiveValue(g, partition.WorstCut))
	fmt.Printf("comm volume (sum_q V(q)): %.0f\n", p.ObjectiveValue(g, partition.CommVolume))
	fmt.Printf("imbalance^2:             %.2f\n", p.ImbalanceSq(g))
	fmt.Printf("part sizes:              %v\n", p.PartSizes())
	fmt.Printf("fitness (%s): %.2f\n", obj, p.Fitness(g, obj))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gapart:", err)
	os.Exit(1)
}
