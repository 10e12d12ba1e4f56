package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

func TestDomainContains(t *testing.T) {
	cases := []struct {
		d    Domain
		in   []geometry.Point
		out  []geometry.Point
		name string
	}{
		{
			d:    Square{},
			in:   []geometry.Point{{X: 0.5, Y: 0.5}, {X: 0, Y: 0}, {X: 1, Y: 1}},
			out:  []geometry.Point{{X: -0.1, Y: 0.5}, {X: 0.5, Y: 1.1}},
			name: "square",
		},
		{
			d:    LShape{},
			in:   []geometry.Point{{X: 0.25, Y: 0.25}, {X: 0.25, Y: 0.75}, {X: 0.75, Y: 0.25}},
			out:  []geometry.Point{{X: 0.75, Y: 0.75}, {X: 1.2, Y: 0.2}},
			name: "l-shape",
		},
		{
			d:    Annulus{},
			in:   []geometry.Point{{X: 0.5 + 0.3, Y: 0.5}, {X: 0.5, Y: 0.5 - 0.35}},
			out:  []geometry.Point{{X: 0.5, Y: 0.5}, {X: 0.5 + 0.05, Y: 0.5}, {X: 0.99, Y: 0.99}},
			name: "annulus",
		},
	}
	for _, c := range cases {
		if c.d.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.d.Name(), c.name)
		}
		for _, p := range c.in {
			if !c.d.Contains(p) {
				t.Errorf("%s: %v should be inside", c.name, p)
			}
		}
		for _, p := range c.out {
			if c.d.Contains(p) {
				t.Errorf("%s: %v should be outside", c.name, p)
			}
		}
	}
}

func TestDomainMeshBasics(t *testing.T) {
	for _, d := range []Domain{Square{}, LShape{}, Annulus{}} {
		g := DomainMesh(d, 120, 7)
		if g.NumNodes() != 120 {
			t.Fatalf("%s: %d nodes", d.Name(), g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", d.Name())
		}
		// All nodes inside the domain.
		for v := 0; v < g.NumNodes(); v++ {
			c := g.Coord(v)
			if !d.Contains(geometry.Point{X: c.X, Y: c.Y}) {
				t.Fatalf("%s: node %d at %v outside domain", d.Name(), v, c)
			}
		}
	}
}

func TestAnnulusMeshHasHole(t *testing.T) {
	// No edge of the annulus mesh may cross the central hole: the midpoint
	// of every edge stays out of the inner disc (small tolerance for edges
	// hugging the inner boundary).
	a := Annulus{}
	g := DomainMesh(a, 150, 11)
	in, _ := a.radii()
	violations := 0
	g.Edges(func(u, v int, w float64) bool {
		cu, cv := g.Coord(u), g.Coord(v)
		mx, my := (cu.X+cv.X)/2-0.5, (cu.Y+cv.Y)/2-0.5
		if mx*mx+my*my < (in*0.8)*(in*0.8) {
			violations++
		}
		return true
	})
	if violations > 0 {
		t.Errorf("%d edges cross deep into the hole", violations)
	}
}

func TestLShapeMeshAvoidsNotch(t *testing.T) {
	g := DomainMesh(LShape{}, 150, 13)
	violations := 0
	g.Edges(func(u, v int, w float64) bool {
		cu, cv := g.Coord(u), g.Coord(v)
		mx, my := (cu.X+cv.X)/2, (cu.Y+cv.Y)/2
		// Deep inside the removed quadrant.
		if mx > 0.6 && my > 0.6 {
			violations++
		}
		return true
	})
	if violations > 0 {
		t.Errorf("%d edges cross the notch", violations)
	}
}

func TestDomainMeshDeterministic(t *testing.T) {
	a := DomainMesh(LShape{}, 80, 3)
	b := DomainMesh(LShape{}, 80, 3)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different domain meshes")
	}
	a.Edges(func(u, v int, w float64) bool {
		if !b.HasEdge(u, v) {
			t.Fatal("edge sets differ")
		}
		return true
	})
}

// Property: domain meshes are connected, valid, planar-bounded, and fully
// inside the domain for all three domains and various sizes.
func TestQuickDomainMeshInvariants(t *testing.T) {
	domains := []Domain{Square{}, LShape{}, Annulus{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := domains[rng.Intn(len(domains))]
		n := 20 + rng.Intn(80)
		g := DomainMesh(d, n, seed)
		if g.Validate() != nil || !g.IsConnected() || g.NumEdges() > 3*n-6 {
			return false
		}
		for v := 0; v < n; v++ {
			c := g.Coord(v)
			if !d.Contains(geometry.Point{X: c.X, Y: c.Y}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
