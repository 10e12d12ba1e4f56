package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// pathGraph builds 0-1-2-...-(n-1).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

func TestNewAndValidate(t *testing.T) {
	g := pathGraph(4)
	p := New(4, 2)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	p.Assign[0] = 5
	if err := p.Validate(g); err == nil {
		t.Error("out-of-range part accepted")
	}
	q := New(3, 2)
	if err := q.Validate(g); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestNewPanicsOnBadParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(4, 0) should panic")
		}
	}()
	New(4, 0)
}

func TestCutSizePath(t *testing.T) {
	// Path 0-1-2-3-4-5-6-7, partition 11100011 from the paper's §3.1
	// (nodes 0,1,2,6,7 in part 1; nodes 3,4,5 in part 0): 2 cut edges.
	g := pathGraph(8)
	p := New(8, 2)
	for _, v := range []int{0, 1, 2, 6, 7} {
		p.Assign[v] = 1
	}
	if cut := p.CutSize(g); cut != 2 {
		t.Errorf("cut = %v, want 2", cut)
	}
	// 10101011 has 6 inter-part edges, as the paper states.
	p2 := New(8, 2)
	for i, c := range "10101011" {
		if c == '1' {
			p2.Assign[i] = 1
		}
	}
	if cut := p2.CutSize(g); cut != 6 {
		t.Errorf("cut(10101011) = %v, want 6", cut)
	}
}

func TestPaperFitnessOrdering(t *testing.T) {
	// From §3.1: on the 8-node path, 11100001 (balanced) is fitter than
	// 11100011, which is fitter than 10101011.
	g := pathGraph(8)
	mk := func(s string) *Partition {
		p := New(8, 2)
		for i, c := range s {
			if c == '1' {
				p.Assign[i] = 1
			}
		}
		return p
	}
	f1 := mk("11100001").Fitness(g, TotalCut)
	f2 := mk("11100011").Fitness(g, TotalCut)
	f3 := mk("10101011").Fitness(g, TotalCut)
	if !(f1 > f2 && f2 > f3) {
		t.Errorf("paper ordering violated: %v, %v, %v", f1, f2, f3)
	}
}

func TestImbalanceSq(t *testing.T) {
	g := pathGraph(8)
	p := New(8, 2) // all in part 0: weights (8, 0), avg 4 -> 16+16 = 32
	if got := p.ImbalanceSq(g); got != 32 {
		t.Errorf("ImbalanceSq = %v, want 32", got)
	}
	for v := 4; v < 8; v++ {
		p.Assign[v] = 1
	}
	if got := p.ImbalanceSq(g); got != 0 {
		t.Errorf("balanced ImbalanceSq = %v, want 0", got)
	}
}

func TestPartCutsAndMax(t *testing.T) {
	// Star: center 0 connected to 1..4; center alone in part 0.
	b := graph.NewBuilder(5)
	for v := 1; v <= 4; v++ {
		b.AddEdge(0, v, 1)
	}
	g := b.Build()
	p := New(5, 2)
	for v := 1; v <= 4; v++ {
		p.Assign[v] = 1
	}
	cuts := p.PartCuts(g)
	if cuts[0] != 4 || cuts[1] != 4 {
		t.Errorf("PartCuts = %v, want [4 4]", cuts)
	}
	if p.MaxPartCut(g) != 4 {
		t.Errorf("MaxPartCut = %v", p.MaxPartCut(g))
	}
	if p.CutSize(g) != 4 {
		t.Errorf("CutSize = %v, want 4", p.CutSize(g))
	}
}

func TestWeightedEdgesRespected(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 3.5)
	g := b.Build()
	p := New(2, 2)
	p.Assign[1] = 1
	if p.CutSize(g) != 3.5 {
		t.Errorf("weighted cut = %v, want 3.5", p.CutSize(g))
	}
}

func TestBoundaryNodes(t *testing.T) {
	g := pathGraph(6)
	p := New(6, 2)
	for v := 3; v < 6; v++ {
		p.Assign[v] = 1
	}
	bn := p.BoundaryNodes(g)
	if len(bn) != 2 || bn[0] != 2 || bn[1] != 3 {
		t.Errorf("BoundaryNodes = %v, want [2 3]", bn)
	}
}

func TestBalanced(t *testing.T) {
	p := New(7, 2)
	for v := 0; v < 3; v++ {
		p.Assign[v] = 1
	}
	if !p.Balanced() { // 4 vs 3
		t.Error("4/3 split reported unbalanced")
	}
	p.Assign[3] = 1
	if !p.Balanced() { // 3 vs 4
		t.Error("3/4 split reported unbalanced")
	}
	p.Assign[4] = 1
	if p.Balanced() { // 2 vs 5
		t.Error("2/5 split reported balanced")
	}
}

func TestRandomBalancedIsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, parts := range []int{2, 3, 4, 8} {
		for _, n := range []int{10, 17, 64} {
			p := RandomBalanced(n, parts, rng)
			if !p.Balanced() {
				t.Errorf("RandomBalanced(%d,%d) sizes %v", n, parts, p.PartSizes())
			}
		}
	}
}

func TestFitnessObjectivesDiffer(t *testing.T) {
	g := gen.Mesh(50, 3)
	rng := rand.New(rand.NewSource(2))
	p := RandomBalanced(50, 4, rng)
	f1 := p.Fitness(g, TotalCut)
	f2 := p.Fitness(g, WorstCut)
	if f1 >= 0 || f2 >= 0 {
		t.Errorf("fitness should be negative for a random partition: %v, %v", f1, f2)
	}
	// Total cut counts every part's boundary; worst counts one part, so
	// Fitness1 <= Fitness2 always (same imbalance term).
	if f1 > f2 {
		t.Errorf("Fitness1 %v > Fitness2 %v", f1, f2)
	}
}

func TestExtendRandomBalancedKeepsOldAssignments(t *testing.T) {
	base := gen.Mesh(118, 11)
	rng := rand.New(rand.NewSource(5))
	grown := gen.Refine(base, 21, rng)
	old := RandomBalanced(base.NumNodes(), 4, rng)
	ext := ExtendRandomBalanced(old, grown, rng)
	for v := 0; v < base.NumNodes(); v++ {
		if ext.Assign[v] != old.Assign[v] {
			t.Fatalf("node %d reassigned by extension", v)
		}
	}
	if err := ext.Validate(grown); err != nil {
		t.Fatal(err)
	}
	// Balance maintained: sizes within 2 of each other (new nodes always go
	// to a lightest part).
	s := ext.PartSizes()
	min, max := s[0], s[0]
	for _, x := range s {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max-min > 2 {
		t.Errorf("extension unbalanced: %v", s)
	}
}

func TestExtendMajorityNeighbor(t *testing.T) {
	// Path 0-1-2 grown with node 3 attached to node 2: majority rule must
	// put 3 in 2's part.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 2, 1)
	g := b.Build()
	old := New(3, 2)
	old.Assign[2] = 1
	ext := ExtendMajorityNeighbor(old, g)
	if ext.Assign[3] != 1 {
		t.Errorf("new node went to part %d, want 1", ext.Assign[3])
	}
}

func TestExtendMajorityNeighborDeterministic(t *testing.T) {
	base := gen.Mesh(78, 9)
	rng := rand.New(rand.NewSource(7))
	grown := gen.Refine(base, 10, rng)
	old := RandomBalanced(base.NumNodes(), 4, rand.New(rand.NewSource(8)))
	a := ExtendMajorityNeighbor(old, grown)
	b := ExtendMajorityNeighbor(old, grown)
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("majority-neighbor extension not deterministic")
		}
	}
}

// Property: CutSize is exactly half of Σ_q PartCuts(q) for unit and weighted
// edges; fitness decreases when imbalance or cut grows.
func TestQuickCutConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(4)
		p := Random(n, parts, rng)
		var sum float64
		for _, c := range p.PartCuts(g) {
			sum += c
		}
		return math.Abs(sum-2*p.CutSize(g)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// Property: moving a node to the part of all its neighbors never increases
// CutSize.
func TestQuickLocalMoveReducesCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		g := gen.Mesh(n, seed)
		p := Random(n, 2, rng)
		before := p.CutSize(g)
		// Pick a node whose neighbors are all in the other part; move it.
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			q := p.Assign[nbrs[0]]
			all := q != p.Assign[v]
			for _, u := range nbrs[1:] {
				if p.Assign[u] != q {
					all = false
					break
				}
			}
			if all {
				p.Assign[v] = q
				return p.CutSize(g) <= before
			}
		}
		return true // no such node; vacuous
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// Property: ExtendRandomBalanced never leaves a part more than one node-add
// ahead of the minimum when starting balanced.
func TestQuickExtendBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := gen.Mesh(30+rng.Intn(40), seed)
		grown := gen.Refine(base, 5+rng.Intn(15), rng)
		parts := 2 + rng.Intn(6)
		old := RandomBalanced(base.NumNodes(), parts, rng)
		ext := ExtendRandomBalanced(old, grown, rng)
		s := ext.PartSizes()
		min, max := s[0], s[0]
		for _, x := range s {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return max-min <= 2 && ext.Validate(grown) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
}
