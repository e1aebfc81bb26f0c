package geo

import (
	"math"
	"testing"
)

func square(size float64) Polygon { return squareAt(0, 0, size) }

// squareAt returns the axis-aligned square with lower-left corner (x, y).
func squareAt(x, y, size float64) Polygon {
	return Polygon{Pt(x, y), Pt(x+size, y), Pt(x+size, y+size), Pt(x, y+size)}
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
	b := squareAt(8, 8, 4)
	if !a.IntersectsPolygon(b) {
		t.Error("overlapping polygons should intersect")
	}
	c := squareAt(20, 0, 4)
	if a.IntersectsPolygon(c) {
		t.Error("disjoint polygons should not intersect")
	}
	inner := squareAt(4, 4, 2)
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
	// The apex, then the arc's 17 vertices at the radius.
	if len(pg) != 18 || pg[0] != apex {
		t.Fatalf("sector has %d vertices starting at %v, want 18 from the apex", len(pg), pg[0])
	}
	for _, p := range pg[1:] {
		if !almostEq(p.Dist(apex), 10) {
			t.Errorf("arc vertex %v lies %v from the apex, want 10", p, p.Dist(apex))
		}
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
	if len(pg) != 64 {
		t.Fatalf("circle has %d vertices, want 64", len(pg))
	}
	for _, p := range pg {
		if !almostEq(p.Dist(Pt(3, 3)), 5) {
			t.Errorf("vertex %v lies %v from the center, want 5", p, p.Dist(Pt(3, 3)))
		}
	}
	if !pg.Contains(Pt(3, 3)) {
		t.Error("circle should contain its center")
	}
	if pg.Contains(Pt(9, 3)) {
		t.Error("circle contains point outside radius")
	}
}
