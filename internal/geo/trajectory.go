package geo

import (
	"errors"
	"sort"
	"time"
)

// TimedPoint is a position observed (or interpolated) at an instant.
type TimedPoint struct {
	T time.Time
	P Point
}

// Trajectory is a time-ordered sequence of positions for a single object.
// Methods assume (and the framework maintains) non-decreasing timestamps;
// Sort restores the invariant after bulk loads.
type Trajectory struct {
	Points []TimedPoint
}

// ErrEmptyTrajectory is returned by operations that need at least one sample.
var ErrEmptyTrajectory = errors.New("geo: empty trajectory")

// Len returns the number of samples.
func (tr *Trajectory) Len() int { return len(tr.Points) }

// Append adds a sample, keeping the time ordering by inserting in place if
// the new sample is older than the tail (rare, but out-of-order delivery
// happens in a distributed ingest path).
func (tr *Trajectory) Append(t time.Time, p Point) {
	tp := TimedPoint{T: t, P: p}
	n := len(tr.Points)
	if n == 0 || !t.Before(tr.Points[n-1].T) {
		tr.Points = append(tr.Points, tp)
		return
	}
	i := sort.Search(n, func(i int) bool { return tr.Points[i].T.After(t) })
	tr.Points = append(tr.Points, TimedPoint{})
	copy(tr.Points[i+1:], tr.Points[i:])
	tr.Points[i] = tp
}

// At returns the position at time t, linearly interpolating between the
// surrounding samples. Times outside the sampled range clamp to the first or
// last position.
func (tr *Trajectory) At(t time.Time) (Point, error) {
	n := len(tr.Points)
	if n == 0 {
		return Point{}, ErrEmptyTrajectory
	}
	if !t.After(tr.Points[0].T) {
		return tr.Points[0].P, nil
	}
	if !t.Before(tr.Points[n-1].T) {
		return tr.Points[n-1].P, nil
	}
	i := sort.Search(n, func(i int) bool { return tr.Points[i].T.After(t) })
	a, b := tr.Points[i-1], tr.Points[i]
	span := b.T.Sub(a.T)
	if span <= 0 {
		return b.P, nil
	}
	frac := float64(t.Sub(a.T)) / float64(span)
	return a.P.Lerp(b.P, frac), nil
}

// Length returns the total path length in meters.
func (tr *Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(tr.Points); i++ {
		sum += tr.Points[i].P.Dist(tr.Points[i-1].P)
	}
	return sum
}
