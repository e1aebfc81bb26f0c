package geo

import (
	"errors"
	"fmt"
	"math"
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

// Sort orders samples by time. It is only needed after direct manipulation of
// Points.
func (tr *Trajectory) Sort() {
	sort.SliceStable(tr.Points, func(i, j int) bool { return tr.Points[i].T.Before(tr.Points[j].T) })
}

// Start returns the first sample time.
func (tr *Trajectory) Start() (time.Time, error) {
	if len(tr.Points) == 0 {
		return time.Time{}, ErrEmptyTrajectory
	}
	return tr.Points[0].T, nil
}

// End returns the last sample time.
func (tr *Trajectory) End() (time.Time, error) {
	if len(tr.Points) == 0 {
		return time.Time{}, ErrEmptyTrajectory
	}
	return tr.Points[len(tr.Points)-1].T, nil
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

// Slice returns the samples with t in [from, to] as a new trajectory. The
// boundary positions are interpolated when the window cuts between samples so
// the result starts exactly at from and ends exactly at to (when the source
// covers them).
func (tr *Trajectory) Slice(from, to time.Time) Trajectory {
	var out Trajectory
	if len(tr.Points) == 0 || to.Before(from) {
		return out
	}
	start, _ := tr.Start()
	end, _ := tr.End()
	if to.Before(start) || from.After(end) {
		return out
	}
	if from.After(start) {
		p, _ := tr.At(from)
		out.Points = append(out.Points, TimedPoint{T: from, P: p})
	}
	for _, tp := range tr.Points {
		if !tp.T.Before(from) && !tp.T.After(to) {
			out.Points = append(out.Points, tp)
		}
	}
	if to.Before(end) {
		p, _ := tr.At(to)
		if n := len(out.Points); n == 0 || out.Points[n-1].T.Before(to) {
			out.Points = append(out.Points, TimedPoint{T: to, P: p})
		}
	}
	return out
}

// Length returns the total path length in meters.
func (tr *Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(tr.Points); i++ {
		sum += tr.Points[i].P.Dist(tr.Points[i-1].P)
	}
	return sum
}

// Duration returns the time covered by the trajectory.
func (tr *Trajectory) Duration() time.Duration {
	if len(tr.Points) < 2 {
		return 0
	}
	return tr.Points[len(tr.Points)-1].T.Sub(tr.Points[0].T)
}

// AvgSpeed returns the average speed in meters/second over the whole
// trajectory (0 when the duration is zero).
func (tr *Trajectory) AvgSpeed() float64 {
	d := tr.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return tr.Length() / d
}

// Bounds returns the spatial bounding rectangle of the trajectory.
func (tr *Trajectory) Bounds() Rect {
	out := EmptyRect()
	for _, tp := range tr.Points {
		out = out.UnionPoint(tp.P)
	}
	return out
}

// Resample returns the trajectory sampled at the fixed interval step,
// starting at the first sample time. The last instant is always included.
func (tr *Trajectory) Resample(step time.Duration) (Trajectory, error) {
	if len(tr.Points) == 0 {
		return Trajectory{}, ErrEmptyTrajectory
	}
	if step <= 0 {
		return Trajectory{}, fmt.Errorf("geo: non-positive resample step %v", step)
	}
	start := tr.Points[0].T
	end := tr.Points[len(tr.Points)-1].T
	var out Trajectory
	for t := start; !t.After(end); t = t.Add(step) {
		p, _ := tr.At(t)
		out.Points = append(out.Points, TimedPoint{T: t, P: p})
	}
	if n := len(out.Points); n == 0 || out.Points[n-1].T.Before(end) {
		out.Points = append(out.Points, tr.Points[len(tr.Points)-1])
	}
	return out, nil
}

// Simplify returns a trajectory with redundant samples removed using
// Douglas-Peucker on the spatial path with the given tolerance in meters.
// Timestamps of retained samples are preserved.
func (tr *Trajectory) Simplify(tolerance float64) Trajectory {
	n := len(tr.Points)
	if n <= 2 || tolerance <= 0 {
		out := Trajectory{Points: make([]TimedPoint, n)}
		copy(out.Points, tr.Points)
		return out
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true
	type span struct{ lo, hi int }
	stack := []span{{0, n - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := tr.Points[s.lo].P, tr.Points[s.hi].P
		maxD, maxI := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			d := pointSegDist(tr.Points[i].P, a, b)
			if d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > tolerance {
			keep[maxI] = true
			stack = append(stack, span{s.lo, maxI}, span{maxI, s.hi})
		}
	}
	var out Trajectory
	for i, k := range keep {
		if k {
			out.Points = append(out.Points, tr.Points[i])
		}
	}
	return out
}

// pointSegDist returns the distance from p to segment ab.
func pointSegDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / den
	t = math.Max(0, math.Min(1, t))
	return p.Dist(a.Add(ab.Scale(t)))
}
