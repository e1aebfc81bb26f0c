package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(Pt(3, -1)), Pt(4, 1)},
		{"sub", Pt(1, 2).Sub(Pt(3, -1)), Pt(-2, 3)},
		{"scale", Pt(1.5, -2).Scale(2), Pt(3, -4)},
		{"lerp-mid", Pt(0, 0).Lerp(Pt(10, 20), 0.5), Pt(5, 10)},
		{"lerp-ends", Pt(2, 3).Lerp(Pt(7, 9), 0), Pt(2, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); !almostEq(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist2(Pt(4, 5)); !almostEq(d, 25) {
		t.Errorf("Dist2 = %v, want 25", d)
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{math.Pi / 2, math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
		{-math.Pi / 2, -math.Pi / 2},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); !almostEq(got, tt.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if d := AngleDiff(0.1, -0.1); !almostEq(d, 0.2) {
		t.Errorf("AngleDiff = %v, want 0.2", d)
	}
	// Wrap-around: 179° vs -179° should be 2° apart, not 358°.
	a, b := math.Pi-0.01, -math.Pi+0.01
	if d := math.Abs(AngleDiff(a, b)); !almostEq(d, 0.02) {
		t.Errorf("AngleDiff across wrap = %v, want 0.02", d)
	}
}

// Property: triangle inequality for Dist.
func TestPropTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		c := Pt(math.Mod(cx, 1e6), math.Mod(cy, 1e6))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 equals Dist squared.
func TestPropDist2(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := Pt(math.Mod(ax, 1e4), math.Mod(ay, 1e4))
		b := Pt(math.Mod(bx, 1e4), math.Mod(by, 1e4))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) < 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
