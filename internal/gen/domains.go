package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// Non-convex FEM domains. Real finite-element meshes are rarely square:
// L-shaped brackets and annular sections are the canonical test domains.
// Their re-entrant corners and holes stress partitioners in ways the unit
// square cannot: geometric methods (RCB, IBP, strips) happily connect
// points across a hole, while the graph-aware methods (RSB, KNUX/DKNUX)
// see the true topology. Triangles whose centroid leaves the domain are
// discarded after Delaunay, which carves out the hole.

// Domain restricts point placement and triangulation to a region of the
// unit square.
type Domain interface {
	// Name identifies the domain in reports.
	Name() string
	// Contains reports whether p lies inside the domain.
	Contains(p geometry.Point) bool
}

// Square is the full unit square (the default domain).
type Square struct{}

// Name implements Domain.
func (Square) Name() string { return "square" }

// Contains implements Domain.
func (Square) Contains(p geometry.Point) bool {
	return p.X >= 0 && p.X <= 1 && p.Y >= 0 && p.Y <= 1
}

// LShape is the unit square with the upper-right quadrant removed — the
// classic re-entrant-corner domain.
type LShape struct{}

// Name implements Domain.
func (LShape) Name() string { return "l-shape" }

// Contains implements Domain.
func (LShape) Contains(p geometry.Point) bool {
	if !(Square{}).Contains(p) {
		return false
	}
	return !(p.X > 0.5 && p.Y > 0.5)
}

// Annulus is the ring between radii Inner and Outer around the square's
// center. Zero values select 0.2 and 0.5.
type Annulus struct {
	Inner, Outer float64
}

func (a Annulus) radii() (float64, float64) {
	in, out := a.Inner, a.Outer
	if in == 0 {
		in = 0.2
	}
	if out == 0 {
		out = 0.5
	}
	return in, out
}

// Name implements Domain.
func (a Annulus) Name() string { return "annulus" }

// Contains implements Domain.
func (a Annulus) Contains(p geometry.Point) bool {
	in, out := a.radii()
	dx, dy := p.X-0.5, p.Y-0.5
	r2 := dx*dx + dy*dy
	return r2 >= in*in && r2 <= out*out
}

// DomainMesh returns a Delaunay mesh of n well-spaced random points inside
// the domain, with triangles outside the domain removed (carving holes and
// notches) and connectivity restored by stitching nearest components.
func DomainMesh(d Domain, n int, seed int64) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: domain mesh needs >= 3 nodes, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := domainPoints(d, rng, n)
	tr, err := geometry.Delaunay(pts)
	if err != nil {
		panic(fmt.Sprintf("gen: domain triangulation failed: %v", err))
	}
	// Keep the triangles whose centroid lies in the domain; the others span
	// the hole or notch.
	kept := tr.Triangles[:0]
	for _, t := range tr.Triangles {
		c := geometry.Point{
			X: (pts[t.A].X + pts[t.B].X + pts[t.C].X) / 3,
			Y: (pts[t.A].Y + pts[t.B].Y + pts[t.C].Y) / 3,
		}
		if d.Contains(c) {
			kept = append(kept, t)
		}
	}
	tr.Triangles = kept
	b := graph.NewBuilder(n)
	for i, p := range pts {
		b.SetCoord(i, graph.Point{X: p.X, Y: p.Y})
	}
	for _, e := range tr.Edges() {
		b.AddEdge(e[0], e[1], 1)
	}
	return connect(b.Build(), pts)
}

// domainPoints draws n well-spaced points inside d by rejection sampling.
// The separation target scales with the domain's sampled area fraction.
func domainPoints(d Domain, rng *rand.Rand, n int) []geometry.Point {
	// Estimate the domain's area fraction to calibrate the separation.
	hits := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		if d.Contains(geometry.Point{X: rng.Float64(), Y: rng.Float64()}) {
			hits++
		}
	}
	frac := math.Max(float64(hits)/probes, 0.05)
	minSep := 0.5 * math.Sqrt(frac/float64(n))
	min2 := minSep * minSep

	pts := make([]geometry.Point, 0, n)
	for attempts := 0; len(pts) < n; attempts++ {
		if attempts > 500*n {
			min2 *= 0.25
			attempts = 0
		}
		p := geometry.Point{X: rng.Float64(), Y: rng.Float64()}
		if !d.Contains(p) {
			continue
		}
		ok := true
		for _, q := range pts {
			if p.Dist2(q) < min2 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
		}
	}
	return pts
}
