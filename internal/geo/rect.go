package geo

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max the
// upper-right corner; a rectangle with Min.X > Max.X or Min.Y > Max.Y is
// empty. Boundaries are inclusive: Contains reports true for points on the
// edge, and two rectangles that share only an edge intersect.
type Rect struct {
	Min, Max Point
}

// RectOf returns the rectangle with the given corner coordinates, normalizing
// the order so that Min ≤ Max on both axes.
func RectOf(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// RectAround returns the square rectangle centered at c with half-width r.
func RectAround(c Point, r float64) Rect {
	return Rect{Min: Point{c.X - r, c.Y - r}, Max: Point{c.X + r, c.Y + r}}
}

// EmptyRect returns the canonical empty rectangle, which acts as the identity
// for Union.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the extent along the x axis (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the extent along the y axis (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of the rectangle.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X && s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X && r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	switch {
	case r.IsEmpty():
		return s
	case s.IsEmpty():
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// UnionPoint returns the smallest rectangle covering r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(Rect{Min: p, Max: p})
}

// Expand returns r grown by d on every side. A negative d shrinks the
// rectangle and may make it empty.
func (r Rect) Expand(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Dist2To returns the squared minimum distance from p to the rectangle. This
// is the standard MINDIST bound used for best-first kNN search.
func (r Rect) Dist2To(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	var dx, dy float64
	switch {
	case p.X < r.Min.X:
		dx = r.Min.X - p.X
	case p.X > r.Max.X:
		dx = p.X - r.Max.X
	}
	switch {
	case p.Y < r.Min.Y:
		dy = r.Min.Y - p.Y
	case p.Y > r.Max.Y:
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// Corners returns the four corner points in counter-clockwise order starting
// at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}
