// Package geometry provides the 2-D computational-geometry substrate for the
// mesh generators: points, orientation/in-circle predicates, and a
// Bowyer–Watson Delaunay triangulation.
//
// The paper evaluates on small unstructured computational meshes (78–309
// nodes) that were never published. Delaunay triangulations of random point
// sets are the standard synthetic stand-in: planar, irregular, with the
// spatial locality that KNUX exploits.
package geometry

import "math"

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Orient returns a positive value if a, b, c are in counter-clockwise order,
// negative if clockwise, and zero if collinear. It is the standard 2x2
// determinant; inputs from the mesh generators are random floats, so exact
// degeneracy is measure-zero and an epsilon guard suffices.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircle reports whether point d lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c). It evaluates the standard 3x3
// lifted determinant.
func InCircle(a, b, c, d Point) bool {
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 0
}

// BBox is an axis-aligned bounding box.
type BBox struct {
	Min, Max Point
}

// Bounds returns the bounding box of pts. It panics on an empty slice.
func Bounds(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geometry: Bounds of empty point set")
	}
	bb := BBox{pts[0], pts[0]}
	for _, p := range pts[1:] {
		bb.Min.X = math.Min(bb.Min.X, p.X)
		bb.Min.Y = math.Min(bb.Min.Y, p.Y)
		bb.Max.X = math.Max(bb.Max.X, p.X)
		bb.Max.Y = math.Max(bb.Max.Y, p.Y)
	}
	return bb
}

// Width returns the horizontal extent of the box.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of the box.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Center returns the center of the box.
func (b BBox) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2}
}

// Contains reports whether p is inside the closed box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}
