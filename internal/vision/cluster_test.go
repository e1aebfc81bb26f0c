package vision_test

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestClusterTargetIDsMatchReference checks the association a worker's ingest
// path performs — batched, under the worker lock, namespaced — against the
// reference model fed the same observations one at a time: every worker's
// store must hold exactly the reference's multiset of identities. Feature
// noise sits at the acceptance threshold so the stream fragments identities
// as well as re-sighting them.
func TestClusterTargetIDsMatchReference(t *testing.T) {
	ctx := context.Background()
	world := geo.RectOf(0, 0, 1000, 1000)
	c, err := core.NewLocalCluster(4, nil, core.Options{LostAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var cams []wire.CameraInfo
	for i := 0; i < 16; i++ {
		cams = append(cams, wire.CameraInfo{
			ID:      uint32(i + 1),
			Pos:     geo.Pt(125+250*float64(i%4), 125+250*float64(i/4)),
			HalfFOV: math.Pi,
			Range:   200,
		})
	}
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		World:      world,
		NumObjects: 40,
		Model:      &sim.RandomWaypoint{World: world, MinSpeed: 30, MaxSpeed: 60},
		Seed:       7,
		FeatureDim: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{Seed: 8, FeatureNoise: 0.15, FeatureDim: 32, FalsePosRate: 0.2})
	ing := core.NewIngesterWith(c.Coordinator, c.Transport, core.IngesterOptions{PipelineDepth: 4})
	defer ing.Close()

	// One reference associator per worker, at core's default AssocThreshold.
	refs := map[string]*vision.RefAssociator{}
	want := map[string]map[uint64]int{}
	featured := 0
	w.Run(60, c.Coordinator.Network(), det, func(_ int, dets []vision.Detection) {
		if _, err := ing.IngestDetections(ctx, dets); err != nil {
			t.Fatal(err)
		}
		// A worker associates a frame's observations in (camera, ObsID) order.
		order := append([]vision.Detection(nil), dets...)
		sort.Slice(order, func(i, j int) bool {
			if order[i].Camera != order[j].Camera {
				return order[i].Camera < order[j].Camera
			}
			return order[i].ObsID < order[j].ObsID
		})
		for _, d := range order {
			addr, ok := c.Coordinator.RouteFor(uint32(d.Camera))
			if !ok || len(d.Feature) == 0 {
				continue
			}
			if refs[addr] == nil {
				refs[addr] = vision.NewRefAssociator(0.75)
				want[addr] = map[uint64]int{}
			}
			id, _ := refs[addr].Associate(d.Feature)
			want[addr][id]++
			featured++
		}
	})
	if featured < 1000 {
		t.Fatalf("only %d featured detections; the run proves nothing", featured)
	}
	fragments := 0
	for _, wk := range c.Workers {
		got := map[uint64]int{}
		var namespace uint64
		for _, r := range wk.Store().RangeQuery(geo.RectOf(-1e9, -1e9, 1e9, 1e9), time.Time{}, sim.DefaultStart.Add(time.Hour)) {
			if r.TargetID == 0 {
				continue
			}
			if namespace == 0 {
				namespace = r.TargetID >> 32
			}
			if r.TargetID>>32 != namespace {
				t.Fatalf("worker %s: target IDs in namespaces %x and %x", wk.ID(), namespace, r.TargetID>>32)
			}
			got[r.TargetID&(1<<32-1)]++
		}
		if !reflect.DeepEqual(got, want[wk.Addr()]) {
			t.Errorf("worker %s: %d identities over %d records differ from the reference model's %d", wk.ID(), len(got), wk.Store().Len(), len(want[wk.Addr()]))
		}
		fragments += len(got)
	}
	if fragments <= 40 {
		t.Errorf("%d identities for 40 objects: noise never crossed the threshold, so the tie and miss paths went untested", fragments)
	}
}
