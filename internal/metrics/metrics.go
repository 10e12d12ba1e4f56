// Package metrics computes the decomposition-quality numbers a parallel
// solver actually experiences: per-processor halo (communication) volumes,
// neighbor counts (message counts), surface-to-volume ratios, and data
// migration cost between successive partitions. These translate the
// abstract cut/imbalance objectives of the paper into the quantities its
// introduction motivates ("the computational load on each node is roughly
// the same, while inter-processor communication is minimized").
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Report summarizes one decomposition.
type Report struct {
	Parts int

	// ComputeLoad[q] is the node weight assigned to part q; MaxLoad/AvgLoad
	// is the load-balance ratio (1.0 = perfect).
	ComputeLoad []float64
	LoadRatio   float64

	// HaloSend[q] is the edge weight leaving part q — the data volume q
	// ships per halo exchange. TotalHalo counts each cut edge twice (both
	// directions are sent); Cut counts it once.
	HaloSend  []float64
	TotalHalo float64
	Cut       float64
	WorstHalo float64

	// Neighbors[q] is the number of distinct parts q communicates with —
	// the number of messages per exchange under one-message-per-neighbor.
	Neighbors    []int
	MaxNeighbors int

	// SurfaceToVolume[q] is boundary nodes of q / nodes of q: low values
	// indicate compact, well-shaped parts.
	SurfaceToVolume []float64
}

// Analyze computes the Report for partition p of graph g.
func Analyze(g *graph.Graph, p *partition.Partition) (*Report, error) {
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	r := &Report{Parts: p.Parts}
	r.ComputeLoad = p.PartWeights(g)
	r.LoadRatio = p.Balance(g)

	r.HaloSend = p.PartCuts(g)
	for _, h := range r.HaloSend {
		r.TotalHalo += h
		if h > r.WorstHalo {
			r.WorstHalo = h
		}
	}
	r.Cut = r.TotalHalo / 2

	nbrSets := make([]map[int]bool, p.Parts)
	for q := range nbrSets {
		nbrSets[q] = make(map[int]bool)
	}
	g.Edges(func(u, v int, w float64) bool {
		qu, qv := int(p.Assign[u]), int(p.Assign[v])
		if qu != qv {
			nbrSets[qu][qv] = true
			nbrSets[qv][qu] = true
		}
		return true
	})
	r.Neighbors = make([]int, p.Parts)
	for q, s := range nbrSets {
		r.Neighbors[q] = len(s)
		if len(s) > r.MaxNeighbors {
			r.MaxNeighbors = len(s)
		}
	}

	sizes := p.PartSizes()
	boundary := make([]int, p.Parts)
	for _, v := range p.BoundaryNodes(g) {
		boundary[p.Assign[v]]++
	}
	r.SurfaceToVolume = make([]float64, p.Parts)
	for q := range r.SurfaceToVolume {
		if sizes[q] > 0 {
			r.SurfaceToVolume[q] = float64(boundary[q]) / float64(sizes[q])
		}
	}
	return r, nil
}

// Migration quantifies the cost of switching from partition old to new on
// the same (or grown) graph: the node weight that must move between
// processors. New nodes (beyond old's length) are counted as moved — they
// must be placed somewhere.
func Migration(g *graph.Graph, old, new *partition.Partition) (movedNodes int, movedWeight float64) {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		moved := v >= len(old.Assign)
		if !moved && v < len(new.Assign) && old.Assign[v] != new.Assign[v] {
			moved = true
		}
		if moved {
			movedNodes++
			movedWeight += g.NodeWeight(v)
		}
	}
	return movedNodes, movedWeight
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "parts=%d  cut=%.0f  worst-halo=%.0f  load-ratio=%.3f  max-neighbors=%d\n",
		r.Parts, r.Cut, r.WorstHalo, r.LoadRatio, r.MaxNeighbors)
	fmt.Fprintf(&sb, "%4s %10s %10s %6s %8s\n", "part", "load", "halo", "nbrs", "surf/vol")
	for q := 0; q < r.Parts; q++ {
		fmt.Fprintf(&sb, "%4d %10.1f %10.1f %6d %8.3f\n",
			q, r.ComputeLoad[q], r.HaloSend[q], r.Neighbors[q], r.SurfaceToVolume[q])
	}
	return sb.String()
}

// Compare returns a one-line textual verdict between two reports of the
// same graph/parts: which has lower cut, worst halo, and load ratio.
func Compare(nameA string, a *Report, nameB string, b *Report) string {
	verdict := func(metric string, va, vb float64, lowerBetter bool) string {
		if va == vb {
			return fmt.Sprintf("%s: tie (%.2f)", metric, va)
		}
		winner := nameA
		if (vb < va) == lowerBetter {
			winner = nameB
		}
		return fmt.Sprintf("%s: %s (%.2f vs %.2f)", metric, winner, va, vb)
	}
	parts := []string{
		verdict("cut", a.Cut, b.Cut, true),
		verdict("worst-halo", a.WorstHalo, b.WorstHalo, true),
		verdict("load-ratio", a.LoadRatio, b.LoadRatio, true),
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
