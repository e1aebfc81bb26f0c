package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectOfNormalizes(t *testing.T) {
	r := RectOf(5, 7, 1, 2)
	want := Rect{Min: Pt(1, 2), Max: Pt(5, 7)}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectOf(0, 0, 4, 2)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %v", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Perimeter(); got != 6 {
		t.Errorf("Perimeter = %v", got)
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v", got)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect has nonzero measure")
	}
	r := RectOf(1, 1, 2, 2)
	if e.Union(r) != r || r.Union(e) != r {
		t.Error("EmptyRect is not the identity for Union")
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect intersects something")
	}
	if e.Contains(Pt(0, 0)) {
		t.Error("empty rect contains a point")
	}
}

func TestRectContains(t *testing.T) {
	r := RectOf(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},   // corner inclusive
		{Pt(10, 10), true}, // corner inclusive
		{Pt(10, 5), true},  // edge inclusive
		{Pt(-0.001, 5), false},
		{Pt(5, 10.001), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := RectOf(0, 0, 4, 4)
	b := RectOf(2, 2, 6, 6)
	if !a.Intersects(b) {
		t.Fatal("overlapping rects do not intersect")
	}
	got := a.Intersect(b)
	if want := RectOf(2, 2, 4, 4); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	// Edge-touching rectangles intersect (closed boundaries).
	c := RectOf(4, 0, 8, 4)
	if !a.Intersects(c) {
		t.Error("edge-touching rects should intersect")
	}
	// Disjoint.
	d := RectOf(5, 5, 6, 6)
	if a.Intersects(d) {
		t.Error("disjoint rects intersect")
	}
	if !a.Intersect(d).IsEmpty() {
		t.Error("intersection of disjoint rects not empty")
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := RectOf(0, 0, 10, 10)
	if !outer.ContainsRect(RectOf(1, 1, 9, 9)) {
		t.Error("inner rect not contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect does not contain itself")
	}
	if outer.ContainsRect(RectOf(5, 5, 11, 9)) {
		t.Error("overflowing rect contained")
	}
	if !outer.ContainsRect(EmptyRect()) {
		t.Error("empty rect not contained")
	}
}

func TestRectExpand(t *testing.T) {
	r := RectOf(2, 2, 4, 4).Expand(1)
	if want := RectOf(1, 1, 5, 5); r != want {
		t.Errorf("Expand(1) = %v, want %v", r, want)
	}
	if !RectOf(2, 2, 4, 4).Expand(-2).IsEmpty() {
		t.Error("over-shrunk rect should be empty")
	}
}

func TestRectDistTo(t *testing.T) {
	r := RectOf(0, 0, 2, 2)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},
		{Pt(2, 2), 0},
		{Pt(5, 2), 3},
		{Pt(1, -4), 4},
		{Pt(5, 6), 5}, // 3-4-5 from corner (2,2)
	}
	for _, tt := range tests {
		if got := r.DistTo(tt.p); !almostEq(got, tt.want) {
			t.Errorf("DistTo(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(EmptyRect().Dist2To(Pt(0, 0)), 1) {
		t.Error("Dist2To on empty rect should be +inf")
	}
}

func randRect(rng *rand.Rand) Rect {
	return RectOf(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
}

// Property: Union contains both operands; Intersect is contained in both.
func TestPropRectUnionIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", u, a, b)
		}
		x := a.Intersect(b)
		if !a.ContainsRect(x) || !b.ContainsRect(x) {
			t.Fatalf("intersection %v not inside %v and %v", x, a, b)
		}
		if a.Intersects(b) != !x.IsEmpty() {
			t.Fatalf("Intersects(%v,%v) inconsistent with Intersect", a, b)
		}
	}
}

// Property: Contains(p) iff Dist2To(p) == 0.
func TestPropRectContainsDist(t *testing.T) {
	f := func(x0, y0, x1, y1, px, py float64) bool {
		for _, v := range []float64{x0, y0, x1, y1, px, py} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := RectOf(math.Mod(x0, 100), math.Mod(y0, 100), math.Mod(x1, 100), math.Mod(y1, 100))
		p := Pt(math.Mod(px, 200), math.Mod(py, 200))
		return r.Contains(p) == (r.Dist2To(p) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
