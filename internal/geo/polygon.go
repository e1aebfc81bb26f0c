package geo

import "math"

// Polygon is a simple polygon given by its vertices in order (either
// winding). The closing edge from the last vertex back to the first is
// implicit. A polygon with fewer than three vertices is degenerate: it has
// zero area and contains no points.
type Polygon []Point

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	out := EmptyRect()
	for _, p := range pg {
		out = out.UnionPoint(p)
	}
	return out
}

// Contains reports whether p is inside the polygon, using the ray-casting
// parity rule. Points exactly on an edge may report either side; callers that
// need edge tolerance should expand the polygon first.
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	in := false
	j := len(pg) - 1
	for i := 0; i < len(pg); i++ {
		a, b := pg[i], pg[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xAtY := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < xAtY {
				in = !in
			}
		}
		j = i
	}
	return in
}

// IntersectsRect reports whether the polygon and rectangle share any point.
func (pg Polygon) IntersectsRect(r Rect) bool {
	if len(pg) < 3 || r.IsEmpty() {
		return false
	}
	if !pg.Bounds().Intersects(r) {
		return false
	}
	// Any polygon vertex inside the rect, or rect corner inside the polygon.
	for _, p := range pg {
		if r.Contains(p) {
			return true
		}
	}
	for _, c := range r.Corners() {
		if pg.Contains(c) {
			return true
		}
	}
	// Finally, any edge crossing.
	rc := r.Corners()
	for i := range pg {
		a, b := pg[i], pg[(i+1)%len(pg)]
		for j := 0; j < 4; j++ {
			if SegmentsIntersect(a, b, rc[j], rc[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// IntersectsPolygon reports whether two polygons share any point.
func (pg Polygon) IntersectsPolygon(other Polygon) bool {
	if len(pg) < 3 || len(other) < 3 {
		return false
	}
	if !pg.Bounds().Intersects(other.Bounds()) {
		return false
	}
	if other.Contains(pg[0]) || pg.Contains(other[0]) {
		return true
	}
	for i := range pg {
		a, b := pg[i], pg[(i+1)%len(pg)]
		for j := range other {
			c, d := other[j], other[(j+1)%len(other)]
			if SegmentsIntersect(a, b, c, d) {
				return true
			}
		}
	}
	return false
}

// orient classifies the turn a→b→c: >0 counter-clockwise, <0 clockwise,
// 0 collinear (within epsilon).
func orient(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	const eps = 1e-12
	switch {
	case v > eps:
		return 1
	case v < -eps:
		return -1
	}
	return 0
}

// onSegment reports whether collinear point p lies on segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X)-1e-12 <= p.X && p.X <= math.Max(a.X, b.X)+1e-12 &&
		math.Min(a.Y, b.Y)-1e-12 <= p.Y && p.Y <= math.Max(a.Y, b.Y)+1e-12
}

// SegmentsIntersect reports whether the closed segments ab and cd share a
// point, including touching endpoints and collinear overlap.
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	switch {
	case o1 == 0 && onSegment(a, b, c):
		return true
	case o2 == 0 && onSegment(a, b, d):
		return true
	case o3 == 0 && onSegment(c, d, a):
		return true
	case o4 == 0 && onSegment(c, d, b):
		return true
	}
	return false
}

// Sector returns a polygon approximating the circular sector with the given
// apex, central direction (radians), half-angle (radians), and radius. The
// arc is approximated with segs chord segments (segs < 1 is treated as 1).
// This is the canonical camera field-of-view shape.
func Sector(apex Point, direction, halfAngle, radius float64, segs int) Polygon {
	if segs < 1 {
		segs = 1
	}
	if halfAngle <= 0 || radius <= 0 {
		return nil
	}
	out := make(Polygon, 0, segs+2)
	out = append(out, apex)
	start := direction - halfAngle
	step := 2 * halfAngle / float64(segs)
	for i := 0; i <= segs; i++ {
		a := start + float64(i)*step
		sin, cos := math.Sincos(a)
		out = append(out, Point{apex.X + radius*cos, apex.Y + radius*sin})
	}
	return out
}

// Circle returns a regular polygon with segs vertices approximating the
// circle of the given center and radius.
func Circle(center Point, radius float64, segs int) Polygon {
	if segs < 3 {
		segs = 3
	}
	out := make(Polygon, segs)
	for i := range out {
		a := 2 * math.Pi * float64(i) / float64(segs)
		sin, cos := math.Sincos(a)
		out[i] = Point{center.X + radius*cos, center.Y + radius*sin}
	}
	return out
}
