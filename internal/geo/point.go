// Package geo provides the planar geometry primitives used throughout the
// framework: points, rectangles, polygons, field-of-view sectors, and
// timestamped trajectories.
//
// The world model is a flat 2-D plane measured in meters. Camera networks at
// the scale this framework targets (a campus or a city district) are small
// enough that a local tangent-plane projection is accurate to well under a
// meter, so no spherical geometry is needed.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the 2-D plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids the
// square root and is the preferred comparison key in hot paths such as kNN.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the linear interpolation between p and q at parameter t in
// [0, 1]; t outside that range extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Angle returns the angle of the vector p in radians in (-pi, pi].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// NormalizeAngle maps an angle in radians to the canonical range (-pi, pi].
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a <= -math.Pi {
		a += 2 * math.Pi
	} else if a > math.Pi {
		a -= 2 * math.Pi
	}
	return a
}

// AngleDiff returns the smallest signed difference a-b between two angles,
// normalized to (-pi, pi].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }
