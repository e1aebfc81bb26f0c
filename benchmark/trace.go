package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"stcam/internal/camera"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// trace is the generated input: the camera grid and one base run of
// detections, one slice per one-second tick. Everything the system under
// test receives derives from it, so the same seed gives the same inputs.
type trace struct {
	world geo.Rect
	cams  []wire.CameraInfo
	ticks [][]vision.Detection // with 32-d features, or none for a feature-less workload
	t0    time.Time            // time of tick 0
	n     int                  // detections in one pass over ticks
	hash  string               // input_hash; covers the features either way
	base  float64              // live heap right after generation, MiB
}

// replayIDStride is how far one pass over the base trace moves observation
// IDs (time moves by the pass's span), so replay r never collides with replay
// r-1; enrolIDBase keeps setup's enrolment observations clear of every replay.
const (
	replayIDStride = uint64(1) << 32
	enrolIDBase    = uint64(1) << 62
	tickDur        = time.Second
)

// genTrace builds the internal/bench.makeWorkload shape: a camsPerSide² omni
// grid over a 2000 m world, random-waypoint objects, 32-d features, position
// noise 1 m and feature noise 0.05. A feature-less workload gets the same
// detections with the features stripped.
//
// The load generator shares a heap with the system under test, so the trace
// is kept cheap for the collector: one copy, and the features packed into a
// single backing array instead of a quarter of a million small ones.
func genTrace(seed int64, objects, ticks int, featured bool) *trace {
	world := geo.RectOf(0, 0, worldSide, worldSide)
	tr := &trace{world: world, cams: omniGrid(world, camsPerSide)}
	net := camera.NewNetwork()
	for _, ci := range tr.cams {
		net.Add(camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range))
	}
	net.BuildIndex(0)
	det := vision.NewDetector(vision.DetectorConfig{PosNoise: 1.0, FeatureNoise: 0.05, FeatureDim: featureDim, Seed: seed})
	w, err := sim.NewWorld(sim.Config{
		World:      world,
		NumObjects: objects,
		Model:      &sim.RandomWaypoint{World: world, MinSpeed: 5, MaxSpeed: 20},
		Seed:       seed,
		FeatureDim: featureDim,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail at run time
	}
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w.Run(ticks, net, det, func(_ int, obs []vision.Detection) {
		for _, d := range obs {
			put(d.ObsID)
			put(uint64(d.Camera))
			put(uint64(d.Time.UnixNano()))
			put(math.Float64bits(d.Pos.X))
			put(math.Float64bits(d.Pos.Y))
			for _, f := range d.Feature {
				put(uint64(math.Float32bits(f)))
			}
		}
		tr.ticks = append(tr.ticks, obs)
		tr.n += len(obs)
	})
	var packed []float32
	if featured {
		packed = make([]float32, 0, tr.n*featureDim)
	}
	for _, tick := range tr.ticks {
		for i := range tick {
			if !featured {
				tick[i].Feature = nil
				continue
			}
			at := len(packed)
			packed = append(packed, tick[i].Feature...)
			tick[i].Feature = packed[at:len(packed):len(packed)]
		}
	}
	tr.t0 = sim.DefaultStart.Add(tickDur)
	tr.hash = hex.EncodeToString(h.Sum(nil))[:16]
	tr.base = heapInuseMB()
	return tr
}

// omniGrid lays out side×side omnidirectional cameras covering the world.
func omniGrid(world geo.Rect, side int) []wire.CameraInfo {
	out := make([]wire.CameraInfo, 0, side*side)
	cw, ch := world.Width()/float64(side), world.Height()/float64(side)
	rng := 0.8 * math.Max(cw, ch)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			out = append(out, wire.CameraInfo{
				ID:      uint32(len(out) + 1),
				Pos:     geo.Pt(world.Min.X+(float64(c)+0.5)*cw, world.Min.Y+(float64(r)+0.5)*ch),
				HalfFOV: math.Pi,
				Range:   rng,
			})
		}
	}
	return out
}

// span is the observation time one pass over the base trace covers.
func (tr *trace) span() time.Duration { return time.Duration(len(tr.ticks)) * tickDur }

// step returns global tick g of the endlessly replayed stream: base tick
// g mod len, shifted by whole replays in time and observation ID. dst is
// reused so a long stream holds one tick of scratch, not every replay.
func (tr *trace) step(g int, dst []vision.Detection) []vision.Detection {
	r := g / len(tr.ticks)
	dst = append(dst[:0], tr.ticks[g%len(tr.ticks)]...)
	if r > 0 {
		dt, did := time.Duration(r)*tr.span(), uint64(r)*replayIDStride
		for i := range dst {
			dst[i].Time = dst[i].Time.Add(dt)
			dst[i].ObsID += did
		}
	}
	return dst
}

// tickOf maps an observation time back to the global tick that carried it.
func (tr *trace) tickOf(t time.Time) int { return int(t.Sub(tr.t0) / tickDur) }

// toObservations is the wire form of one tick, as a remote driver sends it.
func toObservations(dets []vision.Detection) []wire.Observation {
	out := make([]wire.Observation, len(dets))
	for i, d := range dets {
		out[i] = wire.Observation{ObsID: d.ObsID, Camera: uint32(d.Camera), Time: d.Time, Pos: d.Pos, Feature: d.Feature}
	}
	return out
}
