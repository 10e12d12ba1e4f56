package partition

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// On integer weights the gain is exact at every part count. At k = 3, where
// the ideal part weight W/k is not representable, every move's
// MoveGainFromWeights must equal the change of the imbalance and of the
// objective's cut term computed in int64 arithmetic.
func TestMoveGainExactAtInexactIdeal(t *testing.T) {
	const k = 3
	g := gen.SkewWeights(gen.Mesh(400, 23), 23, 9)
	rng := rand.New(rand.NewSource(22))
	b := graph.NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		b.SetNodeWeight(v, g.NodeWeight(v))
		b.SetCoord(v, g.Coord(v))
	}
	g.Edges(func(u, v int, _ float64) bool {
		b.AddEdge(u, v, float64(1+rng.Intn(5)))
		return true
	})
	g = b.Build()
	if int64(g.TotalNodeWeight())%k == 0 {
		t.Fatalf("W = %v is divisible by %d: W/k would be exact", g.TotalNodeWeight(), k)
	}
	n := g.NumNodes()
	for _, o := range Objectives() {
		p := RandomBalanced(n, k, rng)
		ev := Tracked(g, p, nil, o, 1)
		for trial := 0; trial < 600; trial++ {
			v := rng.Intn(n)
			from := int(p.Assign[v])
			to := (from + 1 + rng.Intn(k-1)) % k
			var wFrom, wTo, wOther int64
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				switch int(p.Assign[u]) {
				case from:
					wFrom += int64(ws[i])
				case to:
					wTo += int64(ws[i])
				default:
					wOther += int64(ws[i])
				}
			}
			before := exactTerms(g, p, o)
			p.Assign[v] = uint16(to)
			after := exactTerms(g, p, o)
			p.Assign[v] = uint16(from)
			want := before - after // fitness is the negated sum
			got := ev.MoveGainFromWeights(g, p, o, v, to, float64(wFrom), float64(wTo), float64(wOther))
			if got != float64(want) {
				t.Fatalf("%v trial %d: moving %d %d->%d: gain %v, int64 reference %d", o, trial, v, from, to, got, want)
			}
			if trial%3 == 0 {
				ev.Move(g, p, v, to)
			}
		}
	}
}

// exactTerms is Σ_q W(q)² plus objective o's cut term, in int64. The
// imbalance Σ_q (W(q) − W/k)² is Σ_q W(q)² − W²/k, so a move changes the two
// by the same amount. Weights must be integers.
func exactTerms(g *graph.Graph, p *Partition, o Objective) int64 {
	wq := make([]int64, p.Parts)
	for v, q := range p.Assign {
		wq[q] += int64(g.NodeWeight(v))
	}
	var imb int64
	for _, w := range wq {
		imb += w * w
	}
	cq := make([]int64, p.Parts)
	g.Edges(func(u, v int, w float64) bool {
		if p.Assign[u] != p.Assign[v] {
			cq[p.Assign[u]] += int64(w)
			cq[p.Assign[v]] += int64(w)
		}
		return true
	})
	var cut int64
	switch o {
	case TotalCut:
		for _, c := range cq {
			cut += c
		}
	case WorstCut:
		for _, c := range cq {
			cut = max(cut, c)
		}
	case CommVolume:
		cut = int64(p.CommVolume(g))
	}
	return imb + cut
}
