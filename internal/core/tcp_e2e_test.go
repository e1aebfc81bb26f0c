package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestTCPEndToEnd runs the full deployment path over real TCP sockets: a
// coordinator and three workers on loopback, remote camera registration (the
// stcam-sim path), ingest through the coordinator proxy, client queries via
// raw wire messages (the stcamctl path), tracking with cross-worker handoff,
// and heartbeat liveness.
func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	coordTr := cluster.NewTCP()
	defer coordTr.Close()
	coord := NewCoordinator("127.0.0.1:0", coordTr, nil, Options{LostAfter: 2 * time.Second})
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	coordAddr := coord.Addr()

	var workers []*Worker
	for i := 0; i < 3; i++ {
		tr := cluster.NewTCP()
		defer tr.Close()
		w := NewWorker(wire.NodeID(fmt.Sprintf("tcp-w%d", i+1)), "127.0.0.1:0", coordAddr, tr, Options{LostAfter: 2 * time.Second})
		if err := w.Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		w.StartHeartbeats(100 * time.Millisecond)
		workers = append(workers, w)
	}
	if got := len(coord.membership.Alive()); got != 3 {
		t.Fatalf("alive workers = %d", got)
	}

	// Client transport, as stcamctl/stcam-sim would use.
	clientTr := cluster.NewTCP()
	defer clientTr.Close()

	// Remote camera registration: a 6-camera corridor.
	cams := make([]wire.CameraInfo, 6)
	for i := range cams {
		cams[i] = wire.CameraInfo{
			ID:      uint32(i + 1),
			Pos:     geo.Pt(float64(i)*100+50, 50),
			HalfFOV: math.Pi,
			Range:   50,
		}
	}
	resp, err := clientTr.Call(ctx, coordAddr, &wire.AssignCameras{Cameras: cams})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.AssignAck); ack.Accepted != 6 {
		t.Fatalf("registered %d cameras", ack.Accepted)
	}

	// Track a target walking the corridor, ingesting via the coordinator's
	// proxy path (every message crosses real sockets twice).
	feat := vision.NewRandomFeature(newRand(21), 32)
	start := simT0
	send := func(obsID uint64, cam uint32, p geo.Point, at time.Time) {
		t.Helper()
		resp, err := clientTr.Call(ctx, coordAddr, &wire.IngestBatch{
			Camera: cam, FrameTime: at,
			Observations: []wire.Observation{{ObsID: obsID, Camera: cam, Time: at, Pos: p, Feature: feat}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.IngestAck); ack.Accepted != 1 {
			t.Fatalf("ingest rejected: %+v", ack)
		}
	}
	send(1, 1, geo.Pt(30, 50), start)
	trackID, updates, err := coord.StartTrack(ctx, 1, feat, start)
	if err != nil {
		t.Fatal(err)
	}
	obsID := uint64(10)
	for i := 1; i <= 54; i++ {
		p := geo.Pt(30+float64(i)*10, 50)
		at := start.Add(time.Duration(i) * time.Second)
		// Find the covering camera (disjoint 100 m circles along the line).
		cam := uint32(p.X/100) + 1
		if cam >= 1 && cam <= 6 && math.Abs(p.X-float64(cam-1)*100-50) <= 50 {
			send(obsID, cam, p, at)
			obsID++
		}
		// Clock ticks to every worker so loss detection advances.
		for _, w := range workers {
			if _, err := clientTr.Call(ctx, w.Addr(), &wire.IngestBatch{FrameTime: at}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Track updates arrive asynchronously over TCP; wait for the tail.
	deadline := time.Now().Add(5 * time.Second)
	var lastCam uint32
	for time.Now().Before(deadline) && lastCam != 6 {
		select {
		case u := <-updates:
			if u.Camera > lastCam {
				lastCam = u.Camera
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	if lastCam != 6 {
		t.Errorf("track reached camera %d over TCP, want 6", lastCam)
	}
	if _, _, handoffs, ok := coord.TrackInfo(trackID); !ok || handoffs == 0 {
		t.Errorf("no cross-worker handoffs over TCP (handoffs=%d ok=%v)", handoffs, ok)
	}

	// Client queries via raw wire messages (the stcamctl path).
	window := wire.TimeWindow{From: start, To: start.Add(time.Hour)}
	qresp, err := clientTr.Call(ctx, coordAddr, &wire.RangeQuery{QueryID: 9, Rect: geo.RectOf(0, 0, 600, 100), Window: window})
	if err != nil {
		t.Fatal(err)
	}
	rr := qresp.(*wire.RangeResult)
	if len(rr.Records) == 0 {
		t.Fatal("TCP range query returned nothing")
	}
	cresp, err := clientTr.Call(ctx, coordAddr, &wire.CountQuery{QueryID: 10, Rect: geo.RectOf(0, 0, 600, 100), Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if cnt := cresp.(*wire.CountResult).Count; cnt != len(rr.Records) {
		t.Errorf("count %d != range size %d", cnt, len(rr.Records))
	}
	kresp, err := clientTr.Call(ctx, coordAddr, &wire.KNNQuery{QueryID: 11, Center: geo.Pt(0, 50), Window: window, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kr := kresp.(*wire.KNNResult); len(kr.Records) != 3 {
		t.Errorf("TCP knn returned %d records", len(kr.Records))
	}

	// Aggregated worker stats flow over TCP too.
	stats := coord.WorkerStats(ctx)
	if len(stats) != 3 {
		t.Errorf("stats from %d workers", len(stats))
	}
}
