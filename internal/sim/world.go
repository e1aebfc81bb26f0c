package sim

import (
	"fmt"
	"math/rand"
	"time"

	"stcam/internal/camera"
	"stcam/internal/geo"
	"stcam/internal/vision"
)

// Object is one simulated moving entity with a stable appearance feature.
type Object struct {
	ID      uint64
	Pos     geo.Point
	Feature vision.Feature

	// Mobility-model state.
	waypoint geo.Point
	speed    float64
	pause    float64
	dir      geo.Point
	legLeft  float64
}

// Config describes a simulation run.
type Config struct {
	World       geo.Rect
	NumObjects  int
	Model       Mobility
	Tick        time.Duration // simulated time per Step (default 1s)
	Start       time.Time     // simulation epoch (default a fixed instant)
	FeatureDim  int           // appearance embedding dim (0 → vision default)
	Seed        int64
	RecordTruth bool // keep full ground-truth trajectories (memory!)
}

// DefaultStart is the fixed simulation epoch used when Config.Start is zero,
// keeping runs reproducible without consulting the wall clock.
var DefaultStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// World is a deterministic discrete-time simulation of moving objects.
// It is not safe for concurrent use; drive it from a single goroutine and
// fan the observation batches out from there.
type World struct {
	cfg     Config
	rng     *rand.Rand
	objects []*Object
	now     time.Time
	truth   map[uint64]*geo.Trajectory
}

// NewWorld validates cfg and builds the initial object population.
func NewWorld(cfg Config) (*World, error) {
	if cfg.World.IsEmpty() || cfg.World.Area() == 0 {
		return nil, fmt.Errorf("sim: world rectangle must have positive area")
	}
	if cfg.NumObjects < 0 {
		return nil, fmt.Errorf("sim: negative object count %d", cfg.NumObjects)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: nil mobility model")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.Start.IsZero() {
		cfg.Start = DefaultStart
	}
	w := &World{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		now:   cfg.Start,
		truth: make(map[uint64]*geo.Trajectory),
	}
	for i := 0; i < cfg.NumObjects; i++ {
		o := &Object{
			ID:      uint64(i + 1),
			Feature: vision.NewRandomFeature(w.rng, cfg.FeatureDim),
		}
		cfg.Model.Init(o, w.rng)
		w.objects = append(w.objects, o)
		if cfg.RecordTruth {
			tr := &geo.Trajectory{}
			tr.Append(w.now, o.Pos)
			w.truth[o.ID] = tr
		}
	}
	return w, nil
}

// Now returns the current simulated time.
func (w *World) Now() time.Time { return w.now }

// Object returns the object with the given ID, or nil.
func (w *World) Object(id uint64) *Object {
	i := int(id) - 1
	if i < 0 || i >= len(w.objects) {
		return nil
	}
	return w.objects[i]
}

// Step advances simulated time by one tick.
func (w *World) Step() {
	dt := w.cfg.Tick.Seconds()
	w.now = w.now.Add(w.cfg.Tick)
	for _, o := range w.objects {
		w.cfg.Model.Step(o, dt, w.rng)
		if w.cfg.RecordTruth {
			w.truth[o.ID].Append(w.now, o.Pos)
		}
	}
}

// Truth returns the recorded ground-truth trajectory for an object (nil when
// RecordTruth is off or the ID is unknown).
func (w *World) Truth(id uint64) *geo.Trajectory { return w.truth[id] }

// Observe produces the detection events for the current instant across the
// whole network: true detections of visible objects plus the detector's false
// positives. Detections are grouped per camera in the returned map; cameras
// with no events are absent.
func (w *World) Observe(net *camera.Network, det *vision.Detector) map[camera.ID][]vision.Detection {
	out := make(map[camera.ID][]vision.Detection)
	for _, o := range w.objects {
		for _, camID := range net.CamerasCovering(o.Pos) {
			cam, ok := net.Camera(camID)
			if !ok {
				continue
			}
			if d, seen := det.Observe(cam, o.ID, o.Pos, o.Feature, w.now); seen {
				out[camID] = append(out[camID], d)
			}
		}
	}
	if det.Config().FalsePosRate > 0 {
		for _, cam := range net.All() {
			if fps := det.FalsePositives(cam, w.now); len(fps) > 0 {
				out[cam.ID] = append(out[cam.ID], fps...)
			}
		}
	}
	return out
}

// ObserveFlat is Observe flattened into a single slice, ordered by camera ID
// then emission order — convenient for feeding ingestion pipelines.
func (w *World) ObserveFlat(net *camera.Network, det *vision.Detector) []vision.Detection {
	byCam := w.Observe(net, det)
	var out []vision.Detection
	for _, id := range net.IDs() {
		out = append(out, byCam[id]...)
	}
	return out
}

// Run advances n ticks, invoking fn after each step with the tick's
// observations. It is the main simulation loop used by examples and benches.
func (w *World) Run(n int, net *camera.Network, det *vision.Detector, fn func(tick int, obs []vision.Detection)) {
	for i := 0; i < n; i++ {
		w.Step()
		var obs []vision.Detection
		if net != nil && det != nil {
			obs = w.ObserveFlat(net, det)
		}
		if fn != nil {
			fn(i, obs)
		}
	}
}
