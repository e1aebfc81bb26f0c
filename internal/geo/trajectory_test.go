package geo

import (
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
	var empty Trajectory
	if empty.Length() != 0 {
		t.Error("empty trajectory should have zero length")
	}
}
