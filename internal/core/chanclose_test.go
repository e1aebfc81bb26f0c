package core

import (
	"sync"
	"testing"

	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestContinuousUpdateAcrossRemove delivers worker updates to a continuous
// query while it is removed. A delivery that sends after the removal closed
// the channel panics, and -race reports the send against the close.
func TestContinuousUpdateAcrossRemove(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	for round := 0; round < 2000; round++ {
		id, _, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, world1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Coordinator.onContinuousUpdate(&wire.ContinuousUpdate{QueryID: id})
			}()
		}
		if err := c.Coordinator.RemoveContinuous(ctx, id); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestTrackUpdateAcrossStop is TestContinuousUpdateAcrossRemove for track
// updates racing StopTrack.
func TestTrackUpdateAcrossStop(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 1), 50); err != nil {
		t.Fatal(err)
	}
	feat := vision.NewRandomFeature(newRand(3), 32)
	for round := 0; round < 2000; round++ {
		id, _, err := c.Coordinator.StartTrack(ctx, 1, feat, simT0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 50; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Coordinator.onTrackUpdate(&wire.TrackUpdate{TrackID: id, Camera: 1, Pos: geo.Pt(500, 500), Time: simT0})
			}()
		}
		if err := c.Coordinator.StopTrack(ctx, id); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
