package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrient(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient(a, b, Point{0, 1}) <= 0 {
		t.Error("CCW triple not positive")
	}
	if Orient(a, b, Point{0, -1}) >= 0 {
		t.Error("CW triple not negative")
	}
	if Orient(a, b, Point{2, 0}) != 0 {
		t.Error("collinear triple not zero")
	}
}

func TestInCircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) (CCW).
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	if !InCircle(a, b, c, Point{0, 0}) {
		t.Error("center not inside circumcircle")
	}
	if InCircle(a, b, c, Point{2, 2}) {
		t.Error("far point inside circumcircle")
	}
	if InCircle(a, b, c, Point{0, -1}) {
		t.Error("point on circle reported strictly inside")
	}
}

func TestBounds(t *testing.T) {
	bb := Bounds([]Point{{1, 5}, {-2, 3}, {4, -1}})
	if bb.Min != (Point{-2, -1}) || bb.Max != (Point{4, 5}) {
		t.Errorf("Bounds = %+v", bb)
	}
	if bb.Width() != 6 || bb.Height() != 6 {
		t.Errorf("Width/Height = %v/%v", bb.Width(), bb.Height())
	}
	if !bb.Contains(Point{0, 0}) || bb.Contains(Point{9, 9}) {
		t.Error("Contains wrong")
	}
}

func TestDelaunaySquare(t *testing.T) {
	// Unit square: two triangles, five edges (four sides + one diagonal).
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Triangles) != 2 {
		t.Fatalf("triangles = %d, want 2", len(tr.Triangles))
	}
	if got := len(tr.Edges()); got != 5 {
		t.Errorf("edges = %d, want 5", got)
	}
}

func TestDelaunayErrors(t *testing.T) {
	if _, err := Delaunay([]Point{{0, 0}, {1, 1}}); err == nil {
		t.Error("accepted 2 points")
	}
	if _, err := Delaunay([]Point{{0, 0}, {1, 1}, {0, 0}}); err == nil {
		t.Error("accepted duplicate points")
	}
	if _, err := Delaunay([]Point{{0, 0}, {1, 1}, {2, 2}}); err == nil {
		t.Error("accepted collinear points")
	}
}

func TestDelaunayTrianglesAreCCW(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 60)
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range tr.Triangles {
		if Orient(pts[tri.A], pts[tri.B], pts[tri.C]) <= 0 {
			t.Fatalf("triangle %v not CCW", tri)
		}
	}
}

func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	return pts
}

// The Delaunay empty-circle property: no input point strictly inside any
// triangle's circumcircle.
func TestDelaunayEmptyCircleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 40)
	tr, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tri := range tr.Triangles {
		for p := range pts {
			if p == tri.A || p == tri.B || p == tri.C {
				continue
			}
			if InCircle(pts[tri.A], pts[tri.B], pts[tri.C], pts[p]) {
				t.Fatalf("point %d inside circumcircle of %v", p, tri)
			}
		}
	}
}

// Property: Euler bound for planar triangulations of points in general
// position: edges <= 3n-6, triangles <= 2n-5, and the triangulation is
// deterministic for a fixed seed.
func TestQuickDelaunayInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		pts := randomPoints(rng, n)
		tr, err := Delaunay(pts)
		if err != nil {
			return false
		}
		e := len(tr.Edges())
		if e > 3*n-6 || len(tr.Triangles) > 2*n-5 {
			return false
		}
		// Every input point appears in at least one triangle (random points
		// in a square: all points are vertices of the triangulation).
		used := make([]bool, n)
		for _, tri := range tr.Triangles {
			used[tri.A], used[tri.B], used[tri.C] = true, true, true
		}
		for _, u := range used {
			if !u {
				return false
			}
		}
		// Determinism.
		tr2, err := Delaunay(pts)
		if err != nil || len(tr2.Triangles) != len(tr.Triangles) {
			return false
		}
		for i := range tr.Triangles {
			if tr.Triangles[i] != tr2.Triangles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Property: in-circle is symmetric under cyclic rotation of the triangle.
func TestQuickInCircleCyclic(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Mod(math.Abs(v), 10)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		d := Point{clamp(dx), clamp(dy)}
		if math.Abs(Orient(a, b, c)) < 1e-9 {
			return true // skip degenerate triangles
		}
		r1 := InCircle(a, b, c, d)
		r2 := InCircle(b, c, a, d)
		r3 := InCircle(c, a, b, d)
		return r1 == r2 && r2 == r3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}
