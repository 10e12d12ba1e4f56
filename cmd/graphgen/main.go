// Command graphgen emits benchmark graphs in the native text format of
// package gio, so external tools (or future runs) can consume the exact
// meshes the experiments use.
//
// Usage:
//
//	graphgen -suite -dir graphs/                # the full paper suite
//	graphgen -mesh 167 > mesh167.g              # one mesh to stdout
//	graphgen -mesh 167 -format metis > m.metis  # METIS, for partd and external tools
//	graphgen -grid 8x8 > grid.g                 # structured grid
//	graphgen -incremental 118+21 -dir .         # base and grown mesh of one case
//	graphgen -rgg 1000000 -format metis > r.metis    # scale-tier random geometric graph
//	graphgen -powerlaw 1000000 -format edgelist > p.el
//
// -format selects the output encoding (text | metis | edgelist); -suite and
// -incremental name their files with the matching extension so partd,
// gapart -in, and external METIS tooling consume them directly.
//
// The -rgg and -powerlaw generators reach the scale1M tier (millions of
// nodes); all output paths stream line by line through a sized buffer, so
// emitting such graphs costs no memory beyond the graph itself.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
)

func main() {
	var (
		suite  = flag.Bool("suite", false, "emit the full paper mesh suite")
		mesh   = flag.Int("mesh", 0, "emit one benchmark mesh with N nodes to stdout")
		grid   = flag.String("grid", "", "emit an RxC grid, e.g. 8x8")
		incr   = flag.String("incremental", "", "emit an incremental case, e.g. 118+21")
		domain = flag.String("domain", "", "emit a non-convex domain mesh: lshape|annulus (use with -nodes)")
		nodes  = flag.Int("nodes", 150, "node count for -domain")
		rgg    = flag.Int("rgg", 0, "emit a random geometric graph with N nodes (scale1M-tier generator)")
		radius = flag.Float64("radius", 0, "connection radius for -rgg; 0 = sqrt(2.56/N), the scale-suite density")
		plaw   = flag.Int("powerlaw", 0, "emit a power-law (preferential attachment) graph with N nodes")
		seed   = flag.Int64("seed", gen.SuiteSeed, "seed for -rgg and -powerlaw")
		format = flag.String("format", "text", "output format: text | metis | edgelist")
		metis  = flag.Bool("metis", false, "deprecated alias for -format metis")
		dir    = flag.String("dir", ".", "output directory for -suite and -incremental")
	)
	flag.Parse()

	outFormat, err := gio.FormatByName(*format)
	if err != nil {
		fatal(err)
	}
	if *metis {
		outFormat = gio.FormatMETIS
	}
	if outFormat == gio.FormatAuto {
		outFormat = gio.FormatText
	}
	ext := map[gio.Format]string{
		gio.FormatText: ".g", gio.FormatMETIS: ".metis", gio.FormatEdgeList: ".el",
	}[outFormat]

	emit := func(g *graph.Graph) {
		if err := gio.WriteGraph(outFormat, os.Stdout, g); err != nil {
			fatal(err)
		}
	}
	writeGraph := func(path string, g *graph.Graph) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return gio.WriteGraph(outFormat, f, g)
	}
	switch {
	case *suite:
		for _, n := range gen.PaperSizes {
			path := filepath.Join(*dir, fmt.Sprintf("mesh%03d%s", n, ext))
			if err := writeGraph(path, gen.PaperGraph(n)); err != nil {
				fatal(err)
			}
			fmt.Println("wrote", path)
		}
	case *mesh >= 3:
		emit(gen.Mesh(*mesh, gen.SuiteSeed+int64(*mesh)))
	case *domain != "":
		var d gen.Domain
		switch *domain {
		case "lshape":
			d = gen.LShape{}
		case "annulus":
			d = gen.Annulus{}
		default:
			fatal(fmt.Errorf("unknown -domain %q (want lshape or annulus)", *domain))
		}
		emit(gen.DomainMesh(d, *nodes, gen.SuiteSeed))
	case *rgg > 0:
		r := *radius
		if r == 0 {
			// The scale suites' density: expected degree ~ pi*2.56 = 8, which
			// keeps the graph connected with high probability while staying
			// sparse enough that the emit is edge-count, not density, bound.
			r = math.Sqrt(2.56 / float64(*rgg))
		}
		emit(gen.RandomGeometric(rand.New(rand.NewSource(*seed)), *rgg, r))
	case *plaw > 0:
		emit(gen.PowerLaw(*plaw, 4, *seed))
	case *grid != "":
		var r, c int
		if _, err := fmt.Sscanf(*grid, "%dx%d", &r, &c); err != nil || r < 1 || c < 1 {
			fatal(fmt.Errorf("bad -grid %q, want RxC", *grid))
		}
		emit(gen.Grid(r, c))
	case *incr != "":
		var b, a int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*incr, "+", " "), "%d %d", &b, &a); err != nil {
			fatal(fmt.Errorf("bad -incremental %q, want BASE+ADDED", *incr))
		}
		base, grown := gen.IncrementalPair(gen.IncrementalCase{Base: b, Added: a})
		basePath := filepath.Join(*dir, fmt.Sprintf("mesh%03d_base%s", b, ext))
		grownPath := filepath.Join(*dir, fmt.Sprintf("mesh%03d_plus%02d%s", b, a, ext))
		if err := writeGraph(basePath, base); err != nil {
			fatal(err)
		}
		if err := writeGraph(grownPath, grown); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", basePath, "and", grownPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
