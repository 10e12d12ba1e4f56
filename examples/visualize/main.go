// Visualize: render partitions as SVG for visual inspection — scattered
// decomposition, IBP, RSB, and the DKNUX GA side by side on the same mesh,
// with cut edges emphasized. Open the written files in any browser.
//
// Run with: go run ./examples/visualize [-dir OUT]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/ibp"
	"repro/internal/partition"
	"repro/internal/spectral"
	"repro/internal/viz"
)

func main() {
	dir := flag.String("dir", ".", "output directory for the SVG files")
	flag.Parse()

	g := gen.PaperGraph(279)
	const parts = 8

	scattered, err := greedy.Scattered(g.NumNodes(), parts)
	if err != nil {
		log.Fatal(err)
	}
	ibpPart, err := ibp.Partition(g, parts, ibp.ShuffledRowMajor)
	if err != nil {
		log.Fatal(err)
	}
	rsb, err := spectral.Partition(g, parts, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		log.Fatal(err)
	}
	m, err := dpga.New(g, dpga.Config{
		Base: ga.Config{
			Parts:   parts,
			PopSize: 320,
			Seeds:   []*partition.Partition{ibpPart},
			Seed:    17,
		},
		Islands: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	dknux := m.Run(200).Part

	for _, item := range []struct {
		name string
		p    *partition.Partition
	}{
		{"scattered", scattered},
		{"ibp", ibpPart},
		{"rsb", rsb},
		{"dknux", dknux},
	} {
		path := filepath.Join(*dir, fmt.Sprintf("partition_%s.svg", item.name))
		if err := writeSVG(path, g, item.p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s cut=%4.0f worst=%3.0f -> %s\n",
			item.name, item.p.CutSize(g), item.p.MaxPartCut(g), path)
	}
	fmt.Println("\nopen the SVGs in a browser; cut edges are drawn in red.")
}

func writeSVG(path string, g *graph.Graph, p *partition.Partition) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return viz.WriteSVG(f, g, p, viz.Options{ShowCutEdges: true})
}
