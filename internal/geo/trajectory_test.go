package geo

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func lineTraj(n int, step time.Duration, speed float64) *Trajectory {
	tr := &Trajectory{}
	for i := 0; i < n; i++ {
		dt := time.Duration(i) * step
		tr.Append(t0.Add(dt), Pt(speed*dt.Seconds(), 0))
	}
	return tr
}

func TestTrajectoryAppendOrdering(t *testing.T) {
	tr := &Trajectory{}
	tr.Append(t0.Add(2*time.Second), Pt(2, 0))
	tr.Append(t0, Pt(0, 0))
	tr.Append(t0.Add(time.Second), Pt(1, 0))
	tr.Append(t0.Add(3*time.Second), Pt(3, 0))
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].T.Before(tr.Points[i-1].T) {
			t.Fatalf("points out of order at %d: %v", i, tr.Points)
		}
	}
	if tr.Points[0].P != Pt(0, 0) || tr.Points[3].P != Pt(3, 0) {
		t.Errorf("unexpected endpoints: %v", tr.Points)
	}
}

func TestTrajectoryAt(t *testing.T) {
	tr := lineTraj(11, time.Second, 2) // 2 m/s for 10 s
	tests := []struct {
		at   time.Duration
		want Point
	}{
		{0, Pt(0, 0)},
		{5 * time.Second, Pt(10, 0)},
		{2500 * time.Millisecond, Pt(5, 0)},
		{10 * time.Second, Pt(20, 0)},
		{-time.Second, Pt(0, 0)},      // clamp before start
		{20 * time.Second, Pt(20, 0)}, // clamp after end
	}
	for _, tt := range tests {
		got, err := tr.At(t0.Add(tt.at))
		if err != nil {
			t.Fatalf("At(%v): %v", tt.at, err)
		}
		if got.Dist(tt.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
	var empty Trajectory
	if _, err := empty.At(t0); err != ErrEmptyTrajectory {
		t.Errorf("At on empty = %v, want ErrEmptyTrajectory", err)
	}
}

func TestTrajectoryLengthSpeed(t *testing.T) {
	tr := lineTraj(11, time.Second, 3)
	if got := tr.Length(); !almostEq(got, 30) {
		t.Errorf("Length = %v, want 30", got)
	}
	if got := tr.Duration(); got != 10*time.Second {
		t.Errorf("Duration = %v, want 10s", got)
	}
	if got := tr.AvgSpeed(); !almostEq(got, 3) {
		t.Errorf("AvgSpeed = %v, want 3", got)
	}
	var empty Trajectory
	if empty.AvgSpeed() != 0 || empty.Length() != 0 || empty.Duration() != 0 {
		t.Error("empty trajectory should have zero measures")
	}
}

func TestTrajectorySlice(t *testing.T) {
	tr := lineTraj(11, time.Second, 1)
	s := tr.Slice(t0.Add(2500*time.Millisecond), t0.Add(7500*time.Millisecond))
	start, _ := s.Start()
	end, _ := s.End()
	if !start.Equal(t0.Add(2500 * time.Millisecond)) {
		t.Errorf("slice start = %v", start)
	}
	if !end.Equal(t0.Add(7500 * time.Millisecond)) {
		t.Errorf("slice end = %v", end)
	}
	p0, _ := s.At(start)
	if p0.Dist(Pt(2.5, 0)) > 1e-9 {
		t.Errorf("interpolated slice start position = %v", p0)
	}
	// Window fully outside.
	if out := tr.Slice(t0.Add(time.Hour), t0.Add(2*time.Hour)); out.Len() != 0 {
		t.Errorf("out-of-range slice has %d points", out.Len())
	}
	// Inverted window.
	if out := tr.Slice(t0.Add(5*time.Second), t0); out.Len() != 0 {
		t.Errorf("inverted slice has %d points", out.Len())
	}
}

func TestTrajectoryResample(t *testing.T) {
	tr := lineTraj(11, time.Second, 1)
	rs, err := tr.Resample(2500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 0, 2.5, 5, 7.5, 10 → 5 points.
	if rs.Len() != 5 {
		t.Fatalf("resampled to %d points, want 5", rs.Len())
	}
	for _, tp := range rs.Points {
		wantX := tp.T.Sub(t0).Seconds()
		if math.Abs(tp.P.X-wantX) > 1e-9 {
			t.Errorf("resampled point at %v has X=%v, want %v", tp.T, tp.P.X, wantX)
		}
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("Resample(0) should fail")
	}
	var empty Trajectory
	if _, err := empty.Resample(time.Second); err != ErrEmptyTrajectory {
		t.Errorf("Resample on empty = %v", err)
	}
}

func TestTrajectorySimplify(t *testing.T) {
	// A path along a straight line with tiny jitter should collapse to its
	// endpoints.
	tr := &Trajectory{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i <= 100; i++ {
		tr.Append(t0.Add(time.Duration(i)*time.Second), Pt(float64(i), rng.Float64()*0.01))
	}
	s := tr.Simplify(0.5)
	if s.Len() > 3 {
		t.Errorf("simplified straight path has %d points, want <= 3", s.Len())
	}
	if s.Points[0] != tr.Points[0] || s.Points[s.Len()-1] != tr.Points[tr.Len()-1] {
		t.Error("simplify must keep endpoints")
	}
	// A right-angle corner must be preserved.
	corner := &Trajectory{}
	for i := 0; i <= 10; i++ {
		corner.Append(t0.Add(time.Duration(i)*time.Second), Pt(float64(i), 0))
	}
	for i := 1; i <= 10; i++ {
		corner.Append(t0.Add(time.Duration(10+i)*time.Second), Pt(10, float64(i)))
	}
	sc := corner.Simplify(0.5)
	foundCorner := false
	for _, tp := range sc.Points {
		if tp.P.Dist(Pt(10, 0)) < 1e-9 {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Error("simplify dropped the corner vertex")
	}
}

func TestTrajectoryBounds(t *testing.T) {
	tr := &Trajectory{}
	tr.Append(t0, Pt(1, 2))
	tr.Append(t0.Add(time.Second), Pt(-3, 7))
	tr.Append(t0.Add(2*time.Second), Pt(4, 0))
	if got, want := tr.Bounds(), RectOf(-3, 0, 4, 7); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
}
