// Package camera models the physical sensing layer: calibrated cameras with
// positions and fields of view, the camera network, and the "vision graph" —
// the adjacency structure over cameras that cross-camera tracking uses to
// scope handoffs to a handful of neighbors instead of the whole network.
package camera

import (
	"fmt"
	"math"

	"stcam/internal/geo"
)

// ID identifies a camera within a network.
type ID uint32

// Camera is a fixed, calibrated camera. Detections are assumed to be mapped
// into world coordinates by the calibration, so the camera's observable
// region is the planar field-of-view sector.
type Camera struct {
	ID      ID
	Pos     geo.Point // mounting position
	Orient  float64   // viewing direction, radians
	HalfFOV float64   // half of the angular field of view, radians
	Range   float64   // maximum detection distance, meters

	fov    geo.Polygon // cached FOV polygon
	bounds geo.Rect    // cached FOV bounding box
}

// fovSegments is the arc resolution of the cached FOV polygon.
const fovSegments = 16

// New returns a camera with the given pose and optics. It panics on
// non-positive range or half-FOV outside (0, pi]: camera calibration is
// construction-time configuration.
func New(id ID, pos geo.Point, orient, halfFOV, rng float64) *Camera {
	if rng <= 0 || halfFOV <= 0 || halfFOV > math.Pi {
		panic(fmt.Sprintf("camera: invalid optics halfFOV=%v range=%v", halfFOV, rng))
	}
	c := &Camera{ID: id, Pos: pos, Orient: geo.NormalizeAngle(orient), HalfFOV: halfFOV, Range: rng}
	if halfFOV >= math.Pi-1e-9 {
		// Omnidirectional: the FOV is a disc.
		c.fov = geo.Circle(pos, rng, 4*fovSegments)
	} else {
		c.fov = geo.Sector(pos, c.Orient, halfFOV, rng, fovSegments)
	}
	c.bounds = c.fov.Bounds()
	return c
}

// Bounds returns the bounding rectangle of the field of view.
func (c *Camera) Bounds() geo.Rect { return c.bounds }

// Sees reports whether a world point is inside the camera's field of view.
// The exact sector test (distance + angle) is used rather than the polygon
// approximation so visibility is precise at the arc boundary.
func (c *Camera) Sees(p geo.Point) bool {
	d := c.Pos.Dist(p)
	if d > c.Range {
		return false
	}
	if d == 0 || c.HalfFOV >= math.Pi-1e-9 {
		return true
	}
	ang := p.Sub(c.Pos).Angle()
	return math.Abs(geo.AngleDiff(ang, c.Orient)) <= c.HalfFOV
}

// Overlaps reports whether two cameras have overlapping fields of view.
func (c *Camera) Overlaps(other *Camera) bool {
	if !c.bounds.Intersects(other.bounds) {
		return false
	}
	return c.fov.IntersectsPolygon(other.fov)
}
