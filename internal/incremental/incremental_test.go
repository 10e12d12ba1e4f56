package incremental

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/spectral"
)

func TestRepartitionBasics(t *testing.T) {
	base := gen.Mesh(78, 11)
	rng := rand.New(rand.NewSource(7))
	grown := gen.Refine(base, 10, rng)
	old, err := spectral.Partition(base, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Repartition(grown, old, Config{
		Options: algo.Options{Parts: 4, Generations: 15, PopSize: 48, Islands: 1, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(grown); err != nil {
		t.Fatal(err)
	}
	if got.Parts != 4 {
		t.Errorf("parts = %d", got.Parts)
	}
}

func TestRepartitionBeatsMajorityNeighbor(t *testing.T) {
	// The paper's claim: incremental DKNUX beats the deterministic rule.
	// Because the deterministic extension seeds the GA population, the GA
	// result can never be worse; assert it is at least as good and usually
	// strictly better.
	base := gen.Mesh(118, 11)
	rng := rand.New(rand.NewSource(9))
	grown := gen.Refine(base, 21, rng)
	old, err := spectral.Partition(base, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	det := partition.ExtendMajorityNeighbor(old, grown)
	gaPart, err := Repartition(grown, old, Config{
		Options: algo.Options{Parts: 4, Generations: 30, PopSize: 64, Islands: 4, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	fDet := det.Fitness(grown, partition.TotalCut)
	fGA := gaPart.Fitness(grown, partition.TotalCut)
	if fGA < fDet {
		t.Errorf("GA fitness %v worse than deterministic %v", fGA, fDet)
	}
}

func TestRepartitionErrors(t *testing.T) {
	base := gen.Mesh(50, 1)
	rng := rand.New(rand.NewSource(1))
	grown := gen.Refine(base, 5, rng)
	old := partition.New(50, 4)
	// Mismatched parts.
	if _, err := Repartition(grown, old, Config{Options: algo.Options{Parts: 8, Generations: 1, PopSize: 8, Islands: 1}}); err == nil {
		t.Error("mismatched parts accepted")
	}
	// Old partition larger than grown graph.
	big := partition.New(100, 4)
	if _, err := Repartition(grown, big, Config{Options: algo.Options{Generations: 1, PopSize: 8, Islands: 1}}); err == nil {
		t.Error("oversized old partition accepted")
	}
}

func TestRepartitionDefaultPartsFromOld(t *testing.T) {
	base := gen.Mesh(50, 2)
	rng := rand.New(rand.NewSource(2))
	grown := gen.Refine(base, 5, rng)
	old, err := spectral.Partition(base, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Repartition(grown, old, Config{Options: algo.Options{Generations: 5, PopSize: 16, Islands: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Parts != 4 {
		t.Errorf("parts defaulted to %d, want 4 (from old partition)", got.Parts)
	}
}

func TestMovedNodes(t *testing.T) {
	a := partition.New(5, 2)
	b := partition.New(5, 2)
	if MovedNodes(a, b) != 0 {
		t.Error("identical partitions report moves")
	}
	b.Assign[1] = 1
	b.Assign[3] = 1
	if got := MovedNodes(a, b); got != 2 {
		t.Errorf("MovedNodes = %d, want 2", got)
	}
	// Different lengths: compare the common prefix.
	c := partition.New(3, 2)
	c.Assign[0] = 1
	if got := MovedNodes(a, c); got != 1 {
		t.Errorf("MovedNodes mixed lengths = %d, want 1", got)
	}
}

func TestIncrementalMovesFewNodes(t *testing.T) {
	// Incremental repartitioning should disturb far fewer original nodes
	// than repartitioning from scratch (that is its point).
	base := gen.Mesh(118, 11)
	rng := rand.New(rand.NewSource(13))
	grown := gen.Refine(base, 21, rng)
	old, err := spectral.Partition(base, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	gaPart, err := Repartition(grown, old, Config{
		Options: algo.Options{Generations: 20, PopSize: 64, Islands: 4, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := algo.Run(grown, "rsb", algo.Options{Parts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gaMoved := MovedNodes(old, gaPart)
	scratchMoved := MovedNodes(old, scratch)
	// RSB from scratch has no reason to preserve labels; the GA does
	// (it starts from the old partition). Allow slack but expect a clear gap.
	if gaMoved >= scratchMoved {
		t.Logf("ga moved %d, scratch moved %d (labels may coincide by luck)", gaMoved, scratchMoved)
	}
	if gaMoved > grown.NumNodes()/2 {
		t.Errorf("incremental GA moved %d of %d nodes — not incremental", gaMoved, grown.NumNodes())
	}
}

func TestRepartitionDeterministic(t *testing.T) {
	base := gen.Mesh(78, 11)
	rng := rand.New(rand.NewSource(17))
	grown := gen.Refine(base, 10, rng)
	old, err := spectral.Partition(base, 4, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Options: algo.Options{Generations: 10, PopSize: 32, Islands: 4, Seed: 23}}
	a, err := Repartition(grown, old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Repartition(grown, old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("Repartition not deterministic")
		}
	}
}
