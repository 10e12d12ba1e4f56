package ga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func mkParents(g *graph.Graph, parts int, rng *rand.Rand) (*Individual, *Individual) {
	a := partition.RandomBalanced(g.NumNodes(), parts, rng)
	b := partition.RandomBalanced(g.NumNodes(), parts, rng)
	return NewIndividual(g, a, partition.TotalCut), NewIndividual(g, b, partition.TotalCut)
}

// closure checks the fundamental crossover property: every child gene comes
// from one of the parents at the same locus.
func closure(t *testing.T, name string, a, b *Individual, child *partition.Partition) {
	t.Helper()
	for i, v := range child.Assign {
		if v != a.Part.Assign[i] && v != b.Part.Assign[i] {
			t.Fatalf("%s: gene %d = %d, neither parent (%d, %d)", name, i, v, a.Part.Assign[i], b.Part.Assign[i])
		}
	}
}

func TestAllOperatorsClosure(t *testing.T) {
	g := gen.Mesh(60, 1)
	rng := rand.New(rand.NewSource(2))
	a, b := mkParents(g, 4, rng)
	est := partition.RandomBalanced(g.NumNodes(), 4, rng)
	ops := []Crossover{
		KPoint{K: 1}, KPoint{K: 2}, KPoint{K: 5},
		Uniform{},
		NewKNUX(est),
		NewDKNUX(est),
	}
	for _, op := range ops {
		for trial := 0; trial < 10; trial++ {
			child := op.Cross(g, a, b, rng)
			closure(t, op.Name(), a, b, child)
			if len(child.Assign) != g.NumNodes() {
				t.Fatalf("%s: child length %d", op.Name(), len(child.Assign))
			}
		}
	}
}

func TestOperatorsDoNotModifyParents(t *testing.T) {
	g := gen.Mesh(40, 3)
	rng := rand.New(rand.NewSource(4))
	a, b := mkParents(g, 4, rng)
	ac := a.Part.Clone()
	bc := b.Part.Clone()
	est := partition.RandomBalanced(g.NumNodes(), 4, rng)
	for _, op := range []Crossover{KPoint{K: 2}, Uniform{}, NewKNUX(est)} {
		op.Cross(g, a, b, rng)
		for i := range ac.Assign {
			if a.Part.Assign[i] != ac.Assign[i] || b.Part.Assign[i] != bc.Assign[i] {
				t.Fatalf("%s modified a parent", op.Name())
			}
		}
	}
}

func TestKPointSegments(t *testing.T) {
	// With k=1 the child must be a prefix of one parent and suffix of the
	// other. Craft parents with disjoint labels to observe the switch.
	g := gen.Mesh(20, 5)
	a := partition.New(20, 2) // all zeros
	b := partition.New(20, 2)
	for i := range b.Assign {
		b.Assign[i] = 1 // all ones
	}
	ia := NewIndividual(g, a, partition.TotalCut)
	ib := NewIndividual(g, b, partition.TotalCut)
	rng := rand.New(rand.NewSource(6))
	child := KPoint{K: 1}.Cross(g, ia, ib, rng)
	switches := 0
	for i := 1; i < len(child.Assign); i++ {
		if child.Assign[i] != child.Assign[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Errorf("1-point crossover switched %d times, want 1", switches)
	}
}

func TestKPointPanicsOnBadK(t *testing.T) {
	g := gen.Mesh(10, 1)
	rng := rand.New(rand.NewSource(1))
	a, b := mkParents(g, 2, rng)
	for _, k := range []int{0, 10, 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted", k)
				}
			}()
			KPoint{K: k}.Cross(g, a, b, rng)
		}()
	}
}

func TestKNUXAgreementPreserved(t *testing.T) {
	// Genes where parents agree must be copied verbatim regardless of the
	// estimate.
	g := gen.Mesh(30, 7)
	rng := rand.New(rand.NewSource(8))
	a, b := mkParents(g, 4, rng)
	// Force agreement at the first 10 loci.
	for i := 0; i < 10; i++ {
		b.Part.Assign[i] = a.Part.Assign[i]
	}
	op := NewKNUX(partition.RandomBalanced(g.NumNodes(), 4, rng))
	child := op.Cross(g, a, b, rng)
	for i := 0; i < 10; i++ {
		if child.Assign[i] != a.Part.Assign[i] {
			t.Fatalf("agreed gene %d changed", i)
		}
	}
}

func TestKNUXBiasFollowsEstimate(t *testing.T) {
	// Construct a case where the estimate fully supports parent a at a
	// locus: all neighbors of node v are assigned (by I) to a's part of v,
	// none to b's. Then the child must always take a's gene there.
	b := graph.NewBuilder(5)
	for v := 1; v <= 4; v++ {
		b.AddEdge(0, v, 1) // star centered at 0
	}
	g := b.Build()
	pa := partition.New(5, 2) // a assigns node 0 to part 0
	pb := partition.New(5, 2)
	pb.Assign[0] = 1 // b assigns node 0 to part 1
	est := partition.New(5, 2)
	// I assigns all of node 0's neighbors to part 0 => #(0,a,I)=4, #(0,b,I)=0.
	op := NewKNUX(est)
	ia := NewIndividual(g, pa, partition.TotalCut)
	ib := NewIndividual(g, pb, partition.TotalCut)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		child := op.Cross(g, ia, ib, rng)
		if child.Assign[0] != 0 {
			t.Fatalf("KNUX ignored a fully-supporting estimate (trial %d)", trial)
		}
	}
	// Now flip I so all neighbors are in part 1: child must take b's gene.
	for v := 1; v <= 4; v++ {
		est.Assign[v] = 1
	}
	op2 := NewKNUX(est)
	for trial := 0; trial < 50; trial++ {
		child := op2.Cross(g, ia, ib, rng)
		if child.Assign[0] != 1 {
			t.Fatalf("KNUX ignored estimate favoring parent b (trial %d)", trial)
		}
	}
}

func TestKNUXUnbiasedWhenNoInformation(t *testing.T) {
	// Isolated disagreeing locus with no neighbor support either way:
	// p = 0.5. Verify both outcomes occur.
	b := graph.NewBuilder(3)
	b.AddEdge(1, 2, 1) // node 0 isolated
	g := b.Build()
	pa := partition.New(3, 2)
	pb := partition.New(3, 2)
	pb.Assign[0] = 1
	op := NewKNUX(partition.New(3, 2))
	ia := NewIndividual(g, pa, partition.TotalCut)
	ib := NewIndividual(g, pb, partition.TotalCut)
	rng := rand.New(rand.NewSource(10))
	var saw [2]bool
	for trial := 0; trial < 100; trial++ {
		child := op.Cross(g, ia, ib, rng)
		saw[child.Assign[0]] = true
	}
	if !saw[0] || !saw[1] {
		t.Errorf("p=0.5 locus produced only one outcome: %v", saw)
	}
}

func TestNewKNUXPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil estimate accepted")
		}
	}()
	NewKNUX(nil)
}

func TestDKNUXSetEstimate(t *testing.T) {
	est := partition.New(4, 2)
	d := NewDKNUX(est)
	better := partition.New(4, 2)
	better.Assign[0] = 1
	d.SetEstimate(better)
	if d.Estimate().Assign[0] != 1 {
		t.Error("SetEstimate did not replace the estimate")
	}
	// The estimate must be a clone: mutating the source must not leak in.
	better.Assign[1] = 1
	if d.Estimate().Assign[1] == 1 {
		t.Error("SetEstimate aliases caller's partition")
	}
}

func TestOperatorNames(t *testing.T) {
	est := partition.New(2, 2)
	for want, op := range map[string]Crossover{
		"1-point": KPoint{K: 1},
		"2-point": KPoint{K: 2},
		"uniform": Uniform{},
		"KNUX":    NewKNUX(est),
		"DKNUX":   NewDKNUX(est),
	} {
		if op.Name() != want {
			t.Errorf("Name = %q, want %q", op.Name(), want)
		}
	}
}

// Property: closure holds for every operator on random meshes and parents.
func TestQuickClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(50)
		g := gen.Mesh(n, seed)
		parts := 2 + rng.Intn(6)
		a, b := mkParents(g, parts, rng)
		est := partition.RandomBalanced(n, parts, rng)
		ops := []Crossover{KPoint{K: 1 + rng.Intn(n-2)}, Uniform{}, NewKNUX(est), NewDKNUX(est)}
		for _, op := range ops {
			child := op.Cross(g, a, b, rng)
			for i, v := range child.Assign {
				if v != a.Part.Assign[i] && v != b.Part.Assign[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}
