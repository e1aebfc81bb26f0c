package core

import (
	"testing"
	"time"

	"stcam/internal/vision"
)

func TestIngesterRefreshesOnEpochChange(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	cams := gridCams(world1, 2)
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(c.Coordinator, c.Transport)
	dets := []vision.Detection{{ObsID: 1, Camera: 1, Pos: cams[0].Pos, Time: simT0}}
	if n, err := ing.IngestDetections(ctx, dets); err != nil || n != 1 {
		t.Fatalf("first ingest n=%d err=%v", n, err)
	}
	epochBefore := c.Coordinator.Epoch()
	// Bump the epoch; the ingester must pick up the new routing table on its
	// next batch without errors.
	if err := c.Coordinator.Reassign(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Coordinator.Epoch() == epochBefore {
		t.Fatal("epoch did not change")
	}
	dets[0].ObsID = 2
	dets[0].Time = simT0.Add(time.Second)
	if n, err := ing.IngestDetections(ctx, dets); err != nil || n != 1 {
		t.Fatalf("post-reassign ingest n=%d err=%v", n, err)
	}
}

func TestIngesterSkipsUnknownCameras(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(c.Coordinator, c.Transport)
	n, err := ing.IngestDetections(ctx, []vision.Detection{
		{ObsID: 1, Camera: 999, Pos: world1.Center(), Time: simT0}, // unregistered
		{ObsID: 2, Camera: 1, Pos: world1.Center(), Time: simT0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("accepted %d, want 1 (unknown camera dropped)", n)
	}
}

func TestClusterWorkerLookup(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if w := c.Worker("w02"); w == nil || w.ID() != "w02" {
		t.Errorf("Worker(w02) = %v", w)
	}
	if w := c.Worker("missing"); w != nil {
		t.Errorf("Worker(missing) = %v", w)
	}
}

func TestNewLocalClusterValidation(t *testing.T) {
	if _, err := NewLocalCluster(0, nil, Options{}); err == nil {
		t.Error("zero-worker cluster accepted")
	}
}
