// Package partition defines the k-way partition representation and the two
// objective (fitness) functions of the paper.
//
// A partition maps every node of a graph to one of n parts. Quality is the
// combination of load balance and communication cost:
//
//	Fitness1 = −( Σ_q I(q) + Σ_q C(q) )      — total communication cost
//	Fitness2 = −( Σ_q I(q) + max_q C(q) )    — worst-part communication cost
//
// where I(q) = (W(q) − W/n)² is the squared load imbalance of part q and
// C(q) is the total weight of edges leaving part q. Fitness2 is not
// differentiable, which is precisely why the paper's GA matters: gradient-
// style heuristics cannot optimize it directly.
//
// Note Σ_q C(q) counts each cut edge twice (once per side); the paper's
// Tables 1–3 report Σ_q C(q)/2, exposed here as CutSize.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Partition assigns each node of a graph to a part in [0, Parts).
// Assign[v] is the part of node v.
type Partition struct {
	Assign []uint16
	Parts  int
}

// MaxParts is the largest supported part count: part ids are uint16.
const MaxParts = 1 << 16

// New returns a partition of n nodes into parts parts, all nodes in part 0.
func New(n, parts int) *Partition {
	if parts <= 0 || parts > MaxParts {
		panic(fmt.Sprintf("partition: invalid part count %d", parts))
	}
	return &Partition{Assign: make([]uint16, n), Parts: parts}
}

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	return &Partition{Assign: append([]uint16(nil), p.Assign...), Parts: p.Parts}
}

// Validate checks that the partition covers graph g and that every assignment
// is within range.
func (p *Partition) Validate(g *graph.Graph) error {
	if len(p.Assign) != g.NumNodes() {
		return fmt.Errorf("partition: %d assignments for %d nodes", len(p.Assign), g.NumNodes())
	}
	for v, q := range p.Assign {
		if int(q) >= p.Parts {
			return fmt.Errorf("partition: node %d assigned to part %d of %d", v, q, p.Parts)
		}
	}
	return nil
}

// PartWeights returns the total node weight of each part.
func (p *Partition) PartWeights(g *graph.Graph) []float64 {
	w := make([]float64, p.Parts)
	for v, q := range p.Assign {
		w[q] += g.NodeWeight(v)
	}
	return w
}

// Balance returns the heaviest part's weight over the ideal W/k, where W is
// the total node weight: 1.0 is perfect balance. It returns 0 when W <= 0,
// where the ratio has no meaning.
func (p *Partition) Balance(g *graph.Graph) float64 {
	ideal := g.TotalNodeWeight() / float64(p.Parts)
	if ideal <= 0 {
		return 0
	}
	var maxW float64
	for _, w := range p.PartWeights(g) {
		maxW = max(maxW, w)
	}
	return maxW / ideal
}

// PartSizes returns the node count of each part.
func (p *Partition) PartSizes() []int {
	s := make([]int, p.Parts)
	for _, q := range p.Assign {
		s[q]++
	}
	return s
}

// ImbalanceSq returns Σ_q (W(q) − W/n)², the balance term of both fitness
// functions.
func (p *Partition) ImbalanceSq(g *graph.Graph) float64 {
	w := p.PartWeights(g)
	avg := g.TotalNodeWeight() / float64(p.Parts)
	var s float64
	for _, wq := range w {
		d := wq - avg
		s += d * d
	}
	return s
}

// PartCuts returns C(q) for every part q: the total weight of edges with
// exactly one endpoint in q.
func (p *Partition) PartCuts(g *graph.Graph) []float64 {
	c := make([]float64, p.Parts)
	g.Edges(func(u, v int, w float64) bool {
		if p.Assign[u] != p.Assign[v] {
			c[p.Assign[u]] += w
			c[p.Assign[v]] += w
		}
		return true
	})
	return c
}

// CutSize returns Σ_q C(q)/2: the total weight of cut edges, each counted
// once. This is the number the paper's Tables 1–3 report.
func (p *Partition) CutSize(g *graph.Graph) float64 {
	var cut float64
	a := p.Assign
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(u)
		ws := g.EdgeWeights(u)
		for i, v := range nbrs {
			if int(v) > u && a[u] != a[v] {
				cut += ws[i]
			}
		}
	}
	return cut
}

// MaxPartCut returns max_q C(q): the worst single part's communication cost,
// reported in the paper's Tables 4–6.
func (p *Partition) MaxPartCut(g *graph.Graph) float64 {
	var max float64
	for _, c := range p.PartCuts(g) {
		if c > max {
			max = c
		}
	}
	return max
}

// PartVols returns V(q) for every part q: the summed communication volume of
// the nodes assigned to q, where a node's volume is the number of distinct
// foreign parts its neighborhood touches (the messages it sends in a halo
// exchange).
func (p *Partition) PartVols(g *graph.Graph) []float64 {
	vols := make([]float64, p.Parts)
	seen := make([]int32, p.Parts)
	stamp := int32(0)
	for v := 0; v < g.NumNodes(); v++ {
		stamp++
		own := p.Assign[v]
		var ext float64
		for _, u := range g.Neighbors(v) {
			if q := p.Assign[u]; q != own && seen[q] != stamp {
				seen[q] = stamp
				ext++
			}
		}
		vols[own] += ext
	}
	return vols
}

// CommVolume returns Σ_q V(q): the total communication volume — each
// boundary node counted once per foreign part it touches, not once per cut
// edge. This is the quantity the CommVolume objective minimizes.
func (p *Partition) CommVolume(g *graph.Graph) float64 {
	var s float64
	for _, v := range p.PartVols(g) {
		s += v
	}
	return s
}

// ObjectiveValue returns the cost term of objective o — CutSize for
// TotalCut, MaxPartCut for WorstCut, CommVolume for CommVolume — the single
// definition reporting surfaces (bench records, CLIs, viz legends) share.
func (p *Partition) ObjectiveValue(g *graph.Graph, o Objective) float64 {
	switch o {
	case TotalCut:
		return p.CutSize(g)
	case WorstCut:
		return p.MaxPartCut(g)
	case CommVolume:
		return p.CommVolume(g)
	default:
		panic(fmt.Sprintf("partition: unknown objective %d", int(o)))
	}
}

// Objective selects which fitness function scores a partition.
type Objective int

const (
	// TotalCut is Fitness 1: −(Σ imbalance² + Σ_q C(q)).
	TotalCut Objective = iota
	// WorstCut is Fitness 2: −(Σ imbalance² + max_q C(q)).
	WorstCut
	// CommVolume scores −(Σ imbalance² + total communication volume), where
	// the volume counts each boundary node once per foreign part its
	// neighborhood touches — the message count of a halo exchange, as in
	// METIS's -objtype=vol mode — instead of once per cut edge. A hub node
	// with twenty edges into one foreign part costs 20 under the cut
	// objectives but 1 here.
	CommVolume
)

// String returns the paper's name for the objective.
func (o Objective) String() string {
	switch o {
	case TotalCut:
		return "Fitness1(total-cut)"
	case WorstCut:
		return "Fitness2(worst-cut)"
	case CommVolume:
		return "CommVolume(total-volume)"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// FlagName returns the stable user-facing name of the objective — the value
// the -objective flags and the partd "objective" field accept.
func (o Objective) FlagName() string {
	switch o {
	case TotalCut:
		return "cut"
	case WorstCut:
		return "maxcut"
	case CommVolume:
		return "commvol"
	default:
		return fmt.Sprintf("objective-%d", int(o))
	}
}

// ParseObjective maps a user-facing objective name to its Objective. The
// canonical names are "cut", "maxcut", and "commvol"; the pre-objective-
// refactor names "total" and "worst" stay accepted so existing invocations
// and stored requests keep working.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "cut", "total":
		return TotalCut, nil
	case "maxcut", "worst":
		return WorstCut, nil
	case "commvol":
		return CommVolume, nil
	default:
		return TotalCut, fmt.Errorf("partition: unknown objective %q (want cut, maxcut, or commvol)", s)
	}
}

// Objectives lists every objective in declaration order, for callers that
// enumerate the scenario surface (bench suites, /v1/algos).
func Objectives() []Objective { return []Objective{TotalCut, WorstCut, CommVolume} }

// Fitness evaluates the selected fitness function; larger is better, and all
// values are <= 0 with 0 the unattainable ideal (perfect balance, no cut).
// Note the total-cut form uses Σ_q C(q) (cut edges counted twice), exactly as
// the paper defines Fitness 1.
func (p *Partition) Fitness(g *graph.Graph, o Objective) float64 {
	switch o {
	case TotalCut:
		return -(p.ImbalanceSq(g) + 2*p.CutSize(g))
	case WorstCut:
		return -(p.ImbalanceSq(g) + p.MaxPartCut(g))
	case CommVolume:
		return -(p.ImbalanceSq(g) + p.CommVolume(g))
	default:
		panic(fmt.Sprintf("partition: unknown objective %d", int(o)))
	}
}

// FitnessWeighted evaluates the paper's general composite objective of §2,
// −(Σ_q I(q) + α·cost), where cost is Σ_q C(q) (TotalCut) or max_q C(q)
// (WorstCut) and α expresses the relative importance of communication
// versus balance. Fitness is the α = 1 special case used in all of the
// paper's experiments; the general form supports machines where
// communication is relatively more or less expensive than computation.
func (p *Partition) FitnessWeighted(g *graph.Graph, o Objective, alpha float64) float64 {
	switch o {
	case TotalCut:
		return -(p.ImbalanceSq(g) + alpha*2*p.CutSize(g))
	case WorstCut:
		return -(p.ImbalanceSq(g) + alpha*p.MaxPartCut(g))
	case CommVolume:
		return -(p.ImbalanceSq(g) + alpha*p.CommVolume(g))
	default:
		panic(fmt.Sprintf("partition: unknown objective %d", int(o)))
	}
}

// BoundaryNodes returns every node with at least one neighbor in another
// part, in increasing order. These are the only nodes whose reassignment can
// reduce the cut, so hill climbing and KL examine exactly this set.
func (p *Partition) BoundaryNodes(g *graph.Graph) []int {
	var out []int
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if p.Assign[u] != p.Assign[v] {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// Balanced reports whether every part's node count is within one node of
// every other's (the strongest balance achievable with unit weights).
func (p *Partition) Balanced() bool {
	s := p.PartSizes()
	min, max := s[0], s[0]
	for _, x := range s[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max-min <= 1
}
