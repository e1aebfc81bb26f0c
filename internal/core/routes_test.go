package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestIngestAfterAllWorkersRevive: a sweep that declares every worker dead
// publishes no table (Reassign finds no live worker), so the epoch stays. Once
// the workers heartbeat back, ingest reaches them again without a Reassign,
// through the proxy and through a direct Ingester, each of which already saw
// a frame while the workers were dead.
func TestIngestAfterAllWorkersRevive(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	cams := gridCams(world1, 2)
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	direct := NewIngester(c.Coordinator, c.Transport)
	t.Cleanup(direct.Close)
	frame := func(first uint64) []vision.Detection {
		dets := make([]vision.Detection, 8)
		for i := range dets {
			cam := cams[i%len(cams)]
			dets[i] = vision.Detection{ObsID: first + uint64(i), Camera: camera.ID(cam.ID), Time: simT0, Pos: cam.Pos}
		}
		return dets
	}
	epoch := c.Coordinator.Epoch()
	if died := c.Coordinator.Sweep(ctx, time.Now().Add(time.Hour)); len(died) != 2 {
		t.Fatalf("sweep declared %d workers dead, want 2", len(died))
	}
	if c.Coordinator.Epoch() != epoch {
		t.Fatal("epoch moved although no worker was alive")
	}
	_, err := c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(1, 8, cams, simT0))
	var re *cluster.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeNotFound {
		t.Fatalf("proxied batch with every worker dead: err %v, want not-found", err)
	}
	if n, err := direct.IngestDetections(ctx, frame(9)); n != 0 || err != nil {
		t.Fatalf("direct frame with every worker dead: %d accepted, err %v; want 0, nil", n, err)
	}

	for _, w := range c.Workers {
		if err := w.SendHeartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(17, 8, cams, simT0))
	if err != nil {
		t.Fatalf("proxied batch after the workers revived: %v", err)
	}
	if ack := resp.(*wire.IngestAck); ack.Accepted != 8 {
		t.Fatalf("proxied batch after the workers revived: %+v, want 8 accepted", ack)
	}
	if n, err := direct.IngestDetections(ctx, frame(25)); n != 8 || err != nil {
		t.Fatalf("direct frame after the workers revived: %d accepted, err %v; want 8, nil", n, err)
	}
	if c.Coordinator.Epoch() != epoch {
		t.Fatal("a reassign ran; the test wants ingest to recover without one")
	}
}

// TestRoutePublishesAgainstReaders races route-table publishes — AddCameras,
// and Reassigns after worker deaths that move cameras between owners —
// against queries, proxied ingest, Tick and StartTrack. Every track must be
// recorded with the owner that holds it: the worker its TrackStart went to.
func TestRoutePublishesAgainstReaders(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c := newTestCluster(t, 3, Options{HeartbeatTimeout: timeout})
	cams := gridCams(world1, 3)
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	var (
		done    atomic.Bool
		wg      sync.WaitGroup
		trackMu sync.Mutex
		tracks  []uint64
	)
	loop := func(body func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				body(i)
			}
		}()
	}
	loop(func(int) {
		c.Coordinator.Range(ctx, world1, window, 0)         //nolint:errcheck // load only
		c.Coordinator.KNN(ctx, geo.Pt(500, 500), window, 5) //nolint:errcheck // load only
	})
	loop(func(i int) {
		c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(uint64(1+i*8), 8, cams, simT0)) //nolint:errcheck // load only
	})
	loop(func(int) { c.Coordinator.ingest.Tick(ctx, simT0) })
	loop(func(i int) {
		id, _, err := c.Coordinator.StartTrack(ctx, cams[i%len(cams)].ID, []float32{1, 0, 0, 0}, simT0)
		if err == nil {
			trackMu.Lock()
			tracks = append(tracks, id)
			trackMu.Unlock()
		}
	})

	moved := 0
	for round := 0; round < 12; round++ {
		victim := c.Workers[round%len(c.Workers)]
		before := c.Coordinator.Assignment()
		deadline := time.Now().Add(timeout + 10*time.Millisecond)
		for time.Now().Before(deadline) {
			for _, w := range c.Workers {
				if w != victim {
					w.SendHeartbeat(ctx) //nolint:errcheck // in-process, cannot fail
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.Coordinator.membership.Sweep(time.Now())
		c.Coordinator.Reassign(ctx) //nolint:errcheck // a push may race a reader; the next round repairs it
		for cam, n := range c.Coordinator.Assignment() {
			if before[cam] != n {
				moved++
			}
		}
		extra := []wire.CameraInfo{{ID: uint32(100 + round), Pos: cams[round%len(cams)].Pos, Range: 100, HalfFOV: 3.1}}
		c.Coordinator.AddCameras(ctx, extra, 50) //nolint:errcheck // as above
		for _, w := range c.Workers {
			w.SendHeartbeat(ctx) //nolint:errcheck // revive the victim
		}
	}
	done.Store(true)
	wg.Wait()

	if moved == 0 {
		t.Fatal("no camera changed owner; the test is vacuous")
	}
	if len(tracks) == 0 {
		t.Fatal("no track started; the test is vacuous")
	}
	for _, id := range tracks {
		owner, _, _, ok := c.Coordinator.TrackInfo(id)
		if !ok {
			t.Fatalf("track %d vanished", id)
		}
		w := c.Worker(owner)
		if w == nil {
			t.Fatalf("track %d recorded with owner %q, not a worker", id, owner)
		}
		w.evalMu.Lock()
		_, held := w.tracks[id]
		w.evalMu.Unlock()
		if !held {
			t.Errorf("track %d recorded with owner %s, which never received its TrackStart", id, owner)
		}
	}
}
