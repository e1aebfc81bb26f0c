package core

import (
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/vision"
)

// TestWorkerGalleryBoundedByRetention drives a worker far past its retention
// window with identities that appear for a while and never return (and some
// that return only after the window): the gallery must plateau at what one
// window holds instead of growing with the stream, the registry must export
// its size and the expiry count, and — because expiry is decided observation
// by observation — per-camera and per-frame batching must leave identical
// stores.
func TestWorkerGalleryBoundedByRetention(t *testing.T) {
	const (
		retention = 30 * time.Second
		perGen    = 6   // identities alive at a time
		lifetime  = 10  // ticks (seconds) each generation is seen for
		ticks     = 400 // 13 retention windows
		recycle   = 8   // generation g re-uses the appearance of g-8, long expired
	)
	run := func(serial bool) (dump string, peak int, expired int64) {
		c := newTestCluster(t, 1, Options{Retention: retention, LostAfter: time.Hour})
		cams := gridCams(world1, 2)
		if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
			t.Fatal(err)
		}
		ing := NewIngesterWith(c.Coordinator, c.Transport, IngesterOptions{PipelineDepth: 4})
		defer ing.Close()
		var drive detectionIngester = ing
		if serial {
			drive = serialIngester{c.Coordinator, c.Transport}
		}
		w := c.Workers[0]
		rng := newRand(77)
		looks := make([]vision.Feature, recycle*perGen)
		for i := range looks {
			looks[i] = vision.NewRandomFeature(rng, 32)
		}
		obsID := uint64(0)
		for tick := 0; tick < ticks; tick++ {
			gen := tick / lifetime
			var dets []vision.Detection
			for i := 0; i < perGen; i++ {
				obsID++
				cam := cams[(i+tick)%len(cams)]
				dets = append(dets, vision.Detection{
					ObsID:   obsID,
					Camera:  camera.ID(cam.ID),
					Pos:     cam.Pos,
					Time:    simT0.Add(time.Duration(tick) * time.Second),
					Feature: looks[(gen%recycle)*perGen+i].Perturb(rng, 0.02),
				})
			}
			if n, err := drive.IngestDetections(ctx, dets); err != nil || n != perGen {
				t.Fatalf("tick %d: accepted %d of %d: %v", tick, n, perGen, err)
			}
			peak = max(peak, w.assoc.Gallery().Len())
		}
		snap := w.StatsSnapshot()
		if got := snap.Gauges["assoc.gallery_size"]; got != int64(w.assoc.Gallery().Len()) {
			t.Errorf("assoc.gallery_size = %d, gallery holds %d", got, w.assoc.Gallery().Len())
		}
		return dumpStore(w), peak, snap.Counters["assoc.expired"]
	}
	serialDump, peak, expired := run(true)
	founded := perGen * ticks / lifetime
	bound := perGen * (int(retention/time.Second)/lifetime + 2)
	if peak > bound {
		t.Errorf("gallery peaked at %d identities, want <= %d (%d founded)", peak, bound, founded)
	}
	if expired < int64(founded-bound) {
		t.Errorf("assoc.expired = %d, want >= %d of the %d identities founded", expired, founded-bound, founded)
	}
	pipedDump, _, pipedExpired := run(false)
	if pipedDump != serialDump || pipedExpired != expired {
		t.Errorf("pipelined ingest diverged from serial under expiry: %d vs %d expired, stores equal: %v",
			pipedExpired, expired, pipedDump == serialDump)
	}
}
