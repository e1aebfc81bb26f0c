package geo

import (
	"math"
	"testing"
)

func square(size float64) Polygon {
	return Polygon{Pt(0, 0), Pt(size, 0), Pt(size, size), Pt(0, size)}
}

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		pg   Polygon
		want float64
	}{
		{"unit-square", square(1), 1},
		{"square-10", square(10), 100},
		{"triangle", Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 3)}, 6},
		{"degenerate", Polygon{Pt(0, 0), Pt(1, 1)}, 0},
		{"empty", nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pg.Area(); !almostEq(got, tt.want) {
				t.Errorf("Area = %v, want %v", got, tt.want)
			}
		})
	}
	// Winding does not change unsigned area.
	cw := Polygon{Pt(0, 1), Pt(1, 1), Pt(1, 0), Pt(0, 0)}
	if got := cw.Area(); !almostEq(got, 1) {
		t.Errorf("clockwise area = %v, want 1", got)
	}
	if cw.SignedArea() >= 0 {
		t.Error("clockwise polygon should have negative signed area")
	}
}

func TestPolygonCentroid(t *testing.T) {
	c := square(2).Centroid()
	if !almostEq(c.X, 1) || !almostEq(c.Y, 1) {
		t.Errorf("square centroid = %v, want (1,1)", c)
	}
	tri := Polygon{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	c = tri.Centroid()
	if !almostEq(c.X, 1) || !almostEq(c.Y, 1) {
		t.Errorf("triangle centroid = %v, want (1,1)", c)
	}
}

func TestPolygonContains(t *testing.T) {
	pg := square(10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(-1, 5), false},
		{Pt(11, 5), false},
		{Pt(5, -1), false},
		{Pt(9.999, 9.999), true},
	}
	for _, tt := range tests {
		if got := pg.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Concave (L-shaped) polygon.
	l := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	if !l.Contains(Pt(1, 3)) {
		t.Error("L-shape should contain (1,3)")
	}
	if l.Contains(Pt(3, 3)) {
		t.Error("L-shape should not contain (3,3) (the notch)")
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing", Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0), true},
		{"parallel", Pt(0, 0), Pt(2, 0), Pt(0, 1), Pt(2, 1), false},
		{"touching-endpoint", Pt(0, 0), Pt(2, 0), Pt(2, 0), Pt(3, 3), true},
		{"collinear-overlap", Pt(0, 0), Pt(3, 0), Pt(1, 0), Pt(5, 0), true},
		{"collinear-disjoint", Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0), false},
		{"T-junction", Pt(0, 0), Pt(4, 0), Pt(2, -1), Pt(2, 0), true},
		{"near-miss", Pt(0, 0), Pt(4, 0), Pt(2, 0.001), Pt(2, 5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsIntersect(tt.a, tt.b, tt.c, tt.d); got != tt.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPolygonIntersectsRect(t *testing.T) {
	pg := square(10)
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"inside", RectOf(2, 2, 4, 4), true},
		{"containing", RectOf(-5, -5, 15, 15), true},
		{"overlap", RectOf(8, 8, 12, 12), true},
		{"disjoint", RectOf(20, 20, 30, 30), false},
		{"edge-cross-no-vertex", RectOf(-1, 4, 11, 6), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pg.IntersectsRect(tt.r); got != tt.want {
				t.Errorf("IntersectsRect(%v) = %v, want %v", tt.r, got, tt.want)
			}
		})
	}
}

func TestPolygonIntersectsPolygon(t *testing.T) {
	a := square(10)
	b := square(4).Translate(Pt(8, 8))
	if !a.IntersectsPolygon(b) {
		t.Error("overlapping polygons should intersect")
	}
	c := square(4).Translate(Pt(20, 0))
	if a.IntersectsPolygon(c) {
		t.Error("disjoint polygons should not intersect")
	}
	inner := square(2).Translate(Pt(4, 4))
	if !a.IntersectsPolygon(inner) || !inner.IntersectsPolygon(a) {
		t.Error("nested polygons should intersect both ways")
	}
}

func TestSector(t *testing.T) {
	apex := Pt(0, 0)
	pg := Sector(apex, 0, math.Pi/4, 10, 16)
	if len(pg) < 3 {
		t.Fatal("sector polygon degenerate")
	}
	// Points clearly inside the cone and within range.
	if !pg.Contains(Pt(5, 0)) {
		t.Error("sector should contain point on axis")
	}
	if !pg.Contains(Pt(5, 1)) {
		t.Error("sector should contain point slightly off axis")
	}
	// Outside: behind apex, beyond range, outside angle.
	if pg.Contains(Pt(-1, 0)) {
		t.Error("sector contains point behind apex")
	}
	if pg.Contains(Pt(11, 0)) {
		t.Error("sector contains point beyond range")
	}
	if pg.Contains(Pt(1, 5)) {
		t.Error("sector contains point outside half-angle")
	}
	// Area approximates (half) r^2 * angle: full sector area = r^2 * halfAngle.
	want := 10 * 10 * (math.Pi / 4)
	if got := pg.Area(); math.Abs(got-want)/want > 0.02 {
		t.Errorf("sector area = %v, want ≈ %v", got, want)
	}
	if Sector(apex, 0, 0, 10, 8) != nil {
		t.Error("zero half-angle should yield nil polygon")
	}
	if Sector(apex, 0, 1, 0, 8) != nil {
		t.Error("zero radius should yield nil polygon")
	}
}

func TestCircle(t *testing.T) {
	pg := Circle(Pt(3, 3), 5, 64)
	want := math.Pi * 25
	if got := pg.Area(); math.Abs(got-want)/want > 0.01 {
		t.Errorf("circle area = %v, want ≈ %v", got, want)
	}
	if !pg.Contains(Pt(3, 3)) {
		t.Error("circle should contain its center")
	}
	if pg.Contains(Pt(9, 3)) {
		t.Error("circle contains point outside radius")
	}
}
