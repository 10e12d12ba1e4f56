package algo

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// quickOpt keeps the stochastic algorithms cheap enough to conformance-test
// the whole registry; the contract must hold at any budget.
func quickOpt(parts int) Options {
	return Options{
		Parts:       parts,
		Seed:        1994,
		Generations: 25,
		PopSize:     32,
		Islands:     2,
	}
}

// TestRegistryConformance is the registry-wide contract: every registered
// partitioner, run through the same entry point on the same graph, returns a
// valid k-way partition, keeps every part within the balance tolerance, uses
// every part, and reproduces itself exactly for a fixed seed.
func TestRegistryConformance(t *testing.T) {
	g := gen.Mesh(240, 7)
	if !g.HasCoords() {
		t.Fatal("conformance mesh must carry coordinates so geometric algorithms run")
	}
	const parts = 4
	ideal := g.TotalNodeWeight() / parts
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := Run(g, name, quickOpt(parts))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("invalid partition: %v", err)
			}
			if p.Parts != parts {
				t.Fatalf("asked for %d parts, got %d", parts, p.Parts)
			}
			for q, w := range p.PartWeights(g) {
				if w == 0 {
					t.Errorf("part %d is empty", q)
				}
				if w > ideal*(1+BalanceTolerance) {
					t.Errorf("part %d weight %.0f exceeds tolerance (ideal %.1f, max %.1f)",
						q, w, ideal, ideal*(1+BalanceTolerance))
				}
			}
			p2, err := Run(g, name, quickOpt(parts))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			for v := range p.Assign {
				if p.Assign[v] != p2.Assign[v] {
					t.Fatalf("not deterministic for fixed seed: node %d got parts %d and %d",
						v, p.Assign[v], p2.Assign[v])
				}
			}
		})
	}
}

// TestRegistryConformanceDiverse re-runs the registry contract on the
// diverse graph families (power-law, random-geometric, 3-D grid): structure
// the mesh suite cannot exercise — hubs, high clustering, quadratic
// separators, and graphs with no geometric embedding. Coordinate-requiring
// algorithms are validated on the embedded member and skipped (with an
// error, not a wrong answer) on the others.
func TestRegistryConformanceDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", gen.PowerLaw(240, 3, 77)},
		{"rgg", gen.RandomGeometric(rng, 300, 0.11)},
		{"grid3d", gen.Grid3D(6, 6, 6)},
	}
	const parts = 4
	for _, tc := range graphs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ideal := tc.g.TotalNodeWeight() / parts
			for _, name := range Names() {
				p, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if p.Info().NeedsCoords && !tc.g.HasCoords() {
					if _, err := Run(tc.g, name, quickOpt(parts)); err == nil {
						t.Errorf("%s: accepted a graph without coordinates", name)
					}
					continue
				}
				res, err := Run(tc.g, name, quickOpt(parts))
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if err := res.Validate(tc.g); err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				for q, w := range res.PartWeights(tc.g) {
					if w == 0 {
						t.Errorf("%s: part %d is empty", name, q)
					}
					if w > ideal*(1+BalanceTolerance) {
						t.Errorf("%s: part %d weight %.0f exceeds tolerance (ideal %.1f)",
							name, q, w, ideal)
					}
				}
			}
		})
	}
}

// TestMultilevelWorkersBitIdentical pins the registry-level contract that
// Options.Workers — like EvalWorkers — is a pure speed knob: the whole
// V-cycle (coarsening proposals, contraction merges, refinement) must give
// the same partition for every width.
func TestMultilevelWorkersBitIdentical(t *testing.T) {
	g := gen.Mesh(700, 19)
	for _, name := range []string{"multilevel-kl", "multilevel-fm", "multilevel-rsb"} {
		opt := quickOpt(4)
		base, err := Run(g, name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 3, 0} {
			o := opt
			o.Workers = workers
			p, err := Run(g, name, o)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for v := range p.Assign {
				if p.Assign[v] != base.Assign[v] {
					t.Fatalf("%s: Workers=%d changed the result at node %d (%d vs %d)",
						name, workers, v, p.Assign[v], base.Assign[v])
				}
			}
		}
	}
}

// TestRegistryConformanceOddParts re-runs the contract with a non-power-of-
// two part count for every algorithm that supports one.
func TestRegistryConformanceOddParts(t *testing.T) {
	g := gen.Mesh(150, 11)
	const parts = 3
	ideal := g.TotalNodeWeight() / parts
	for _, name := range Names() {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Info().PowerOfTwoParts {
			continue
		}
		res, err := Run(g, name, quickOpt(parts))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for q, w := range res.PartWeights(g) {
			if w > ideal*(1+BalanceTolerance) {
				t.Errorf("%s: part %d weight %.0f exceeds tolerance (ideal %.1f)", name, q, w, ideal)
			}
		}
	}
}

func TestRunRejectsInvalidRequests(t *testing.T) {
	withCoords := gen.Grid(6, 6)
	noCoords := func() *graph.Graph {
		b := graph.NewBuilder(8)
		for v := 1; v < 8; v++ {
			b.AddEdge(v-1, v, 1)
		}
		return b.Build()
	}()

	if _, err := Run(withCoords, "no-such-algorithm", Options{Parts: 2}); err == nil ||
		!strings.Contains(err.Error(), "available:") {
		t.Errorf("unknown name: want error listing available algorithms, got %v", err)
	}
	if _, err := Run(withCoords, "kl", Options{Parts: 0}); err == nil {
		t.Error("parts=0 accepted")
	}
	if _, err := Run(noCoords, "ibp", Options{Parts: 2}); err == nil {
		t.Error("coordinate-requiring algorithm accepted a graph without coordinates")
	}
	if _, err := Run(withCoords, "rsb", Options{Parts: 3}); err == nil {
		t.Error("power-of-two algorithm accepted 3 parts")
	}
}

// Every registered algorithm refuses a part count past the uint16 part ids
// with the typed bad_parts error, before doing any work, instead of
// panicking in partition.New.
func TestRunRefusesTooManyParts(t *testing.T) {
	g := gen.Mesh(100, 3)
	for _, name := range Names() {
		_, err := Run(g, name, Options{Parts: 1<<16 + 1})
		var re *RequestError
		if !errors.As(err, &re) || re.Code != "bad_parts" {
			t.Errorf("%s: got %v, want a bad_parts *RequestError", name, err)
		}
	}
}

// Check refuses GA populations the island model cannot run, judged after
// each algorithm's own defaults (320 over 16 islands for the flat GA, 64
// over 4 for multilevel-ga), and every population it accepts runs. Other
// algorithms ignore the GA fields.
func TestCheckGAOptions(t *testing.T) {
	g := gen.Mesh(120, 3)
	cases := []struct {
		algo         string
		pop, islands int
		code         string // "" = accepted
	}{
		{"dknux", 0, 0, ""},
		{"dknux", 0, 3, "bad_islands"},
		{"dknux", 0, -4, "bad_islands"},
		{"knux", 0, 12, "bad_islands"},
		{"ux", 100000000, 0, "bad_pop_size"},
		{"2pt", -1, 1, "bad_pop_size"},
		{"dknux", 8, 4, "bad_pop_size"},
		{"dknux", 12, 4, ""},
		{"dknux", 47, 0, "bad_pop_size"}, // 2 per default island
		{"dknux", 48, 0, ""},
		{"dknux", 0, 128, "bad_pop_size"}, // 320 over 128 islands
		{"dknux", 3, 1, ""},
		{"dknux", MaxPopSize + 1, 1, "bad_pop_size"},
		{"multilevel-ga", 0, 0, ""},
		{"multilevel-ga", 0, 3, "bad_islands"},
		{"multilevel-ga", 100000000, 0, "bad_pop_size"},
		{"multilevel-ga", 8, 4, "bad_pop_size"},
		{"multilevel-ga", 8, 0, "bad_pop_size"},  // 2 per default island
		{"multilevel-ga", 0, 32, "bad_pop_size"}, // 64 over 32 islands
		{"multilevel-ga", 12, 0, ""},
		{"kl", 8, 3, ""},
		{"multilevel-kl", -1, 3, ""},
	}
	for _, c := range cases {
		opt := Options{Parts: 2, Seed: 1, Generations: 2, PopSize: c.pop, Islands: c.islands}
		re := Check(g, c.algo, opt)
		switch {
		case c.code == "" && re != nil:
			t.Errorf("%s pop %d islands %d: refused %s (%s)", c.algo, c.pop, c.islands, re.Code, re.Message)
		case c.code != "" && (re == nil || re.Code != c.code):
			t.Errorf("%s pop %d islands %d: got %v, want %s", c.algo, c.pop, c.islands, re, c.code)
		case c.code == "":
			if _, err := Run(g, c.algo, opt); err != nil {
				t.Errorf("%s pop %d islands %d: accepted but failed: %v", c.algo, c.pop, c.islands, err)
			}
		}
	}
}

// More parts than nodes is partd's policy, not a registry constraint: the
// multilevel pipeline hands its inner solver a coarsest graph of about 64
// nodes whatever the part count, so Run must keep accepting this request.
func TestMultilevelPartsExceedCoarsestGraph(t *testing.T) {
	g := gen.Mesh(5000, 3)
	p, err := Run(g, "multilevel-kl", Options{Parts: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil || p.Parts != 128 {
		t.Fatalf("parts %d, validate: %v", p.Parts, err)
	}
}

func TestNamesCoverEveryFamily(t *testing.T) {
	have := map[string]bool{}
	for _, n := range Names() {
		have[n] = true
	}
	for _, want := range []string{
		"dknux", "knux", "ux", "2pt", // GA family
		"rsb", "ibp", "rcb", "rgb", // geometric / spectral baselines
		"kl", "fm", "anneal", "grow", "scattered", "strip", // flat heuristics
		"multilevel", "multilevel-kl", "multilevel-fm", "multilevel-rsb", "multilevel-ga",
	} {
		if !have[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(New(Info{Name: "kl"}, func(g *graph.Graph, opt Options) (*partition.Partition, error) {
		return nil, nil
	}))
}

// TestMultilevelBeatsScatteredByFar is a cheap end-to-end quality floor for
// the composed pipeline through the registry entry point.
func TestMultilevelBeatsScatteredByFar(t *testing.T) {
	g := gen.Mesh(600, 3)
	ml, err := Run(g, "multilevel-kl", Options{Parts: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Run(g, "scattered", Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mlCut, scCut := ml.CutSize(g), sc.CutSize(g); mlCut > scCut/4 {
		t.Errorf("multilevel cut %.0f not far below scattered %.0f", mlCut, scCut)
	}
}
