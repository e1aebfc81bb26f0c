package core

import (
	"context"
	"math"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

var (
	ctx    = context.Background()
	simT0  = sim.DefaultStart
	world1 = geo.RectOf(0, 0, 1000, 1000)
)

// gridCams builds an n×n omni-camera lattice covering the world, returning
// the wire camera infos.
func gridCams(world geo.Rect, n int) []wire.CameraInfo {
	out := make([]wire.CameraInfo, 0, n*n)
	cw, ch := world.Width()/float64(n), world.Height()/float64(n)
	rngM := 0.8 * math.Max(cw, ch)
	id := uint32(1)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			out = append(out, wire.CameraInfo{
				ID:      id,
				Pos:     geo.Pt(world.Min.X+(float64(c)+0.5)*cw, world.Min.Y+(float64(r)+0.5)*ch),
				Orient:  0,
				HalfFOV: math.Pi, // omni keeps coverage simple in tests
				Range:   rngM,
			})
			id++
		}
	}
	return out
}

func newTestCluster(t testing.TB, workers int, opts Options) *Cluster {
	t.Helper()
	c, err := NewLocalCluster(workers, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// newFaultyTestCluster is newTestCluster over a Faulty transport, so a test
// can partition a node away (SetPartitioned) to kill it.
func newFaultyTestCluster(t testing.TB, workers int, opts Options) (*Cluster, *cluster.Faulty) {
	t.Helper()
	faulty := cluster.NewFaulty(cluster.NewInProc(), 1)
	c, err := NewLocalClusterOver(faulty, workers, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, faulty
}

// TestZeroOptionsWorkerStoreIsTiered: the zero Options run a worker on the
// tiered store the benchmark measures, sealing at a 2 min horizon.
func TestZeroOptionsWorkerStoreIsTiered(t *testing.T) {
	w := NewWorker("w01", "worker-01", "coord", cluster.NewInProc(), Options{})
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	insert := func(obs uint64, d time.Duration) {
		w.store.Insert(stindex.Record{ObsID: obs, Camera: 1, Pos: geo.Pt(10, 10), Time: base.Add(d)})
	}
	insert(1, 0)
	insert(2, 2*time.Minute)
	if w.store.Seal(); w.store.TierStats().SealedRecords != 0 {
		t.Fatal("zero-Options worker store sealed a record exactly 2m0s old")
	}
	insert(3, 2*time.Minute+time.Millisecond)
	if w.store.Seal(); w.store.TierStats().SealedRecords != 1 {
		t.Fatalf("zero-Options worker store holds %d sealed records past a 2m0s horizon, want 1", w.store.TierStats().SealedRecords)
	}
}

func TestClusterAssignment(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	a := c.Coordinator.Assignment()
	if len(a) != 16 {
		t.Fatalf("assigned %d cameras, want 16", len(a))
	}
	counts := a.Counts()
	if len(counts) != 4 {
		t.Fatalf("cameras spread over %d workers, want 4", len(counts))
	}
	for node, n := range counts {
		if n != 4 {
			t.Errorf("worker %v owns %d cameras, want 4", node, n)
		}
	}
	// Every camera routes to a live worker.
	for cam := range a {
		if _, ok := c.Coordinator.RouteFor(cam); !ok {
			t.Errorf("camera %d has no route", cam)
		}
	}
	if c.Coordinator.Epoch() == 0 {
		t.Error("epoch not bumped by assignment")
	}
}

// obsAt builds a minimal observation.
func obsAt(id uint64, cam uint32, p geo.Point, at time.Time, feat []float32) wire.Observation {
	return wire.Observation{ObsID: id, Camera: cam, Time: at, Pos: p, Feature: feat}
}

func ingestDirect(t testing.TB, c *Cluster, obs ...wire.Observation) int {
	t.Helper()
	byCam := map[uint32][]wire.Observation{}
	for _, o := range obs {
		byCam[o.Camera] = append(byCam[o.Camera], o)
	}
	total := 0
	for cam, batch := range byCam {
		addr, ok := c.Coordinator.RouteFor(cam)
		if !ok {
			t.Fatalf("no route for camera %d", cam)
		}
		resp, err := c.Transport.Call(ctx, addr, &wire.IngestBatch{Camera: cam, Observations: batch})
		if err != nil {
			t.Fatal(err)
		}
		total += resp.(*wire.IngestAck).Accepted
	}
	return total
}

func TestDistributedRangeAndCount(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	// Observations scattered across cameras/workers.
	var obs []wire.Observation
	positions := []geo.Point{
		{X: 100, Y: 100}, {X: 500, Y: 500}, {X: 900, Y: 900},
		{X: 120, Y: 110}, {X: 510, Y: 520},
	}
	cams := []uint32{1, 5, 9, 1, 5}
	for i, p := range positions {
		obs = append(obs, obsAt(uint64(i+1), cams[i], p, simT0.Add(time.Duration(i)*time.Second), nil))
	}
	if got := ingestDirect(t, c, obs...); got != 5 {
		t.Fatalf("ingested %d, want 5", got)
	}
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	// Full-world range sees everything.
	recs, err := c.Coordinator.Range(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("full range = %d records", len(recs))
	}
	// Results are merged in time order.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatal("merged results out of order")
		}
	}
	// A corner range hits one worker's region only.
	recs, err = c.Coordinator.Range(ctx, geo.RectOf(0, 0, 200, 200), window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("corner range = %d records, want 2", len(recs))
	}
	// Count agrees.
	n, err := c.Coordinator.Count(ctx, geo.RectOf(0, 0, 200, 200), window)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
	// Time window filters.
	recs, _ = c.Coordinator.Range(ctx, world1, wire.TimeWindow{From: simT0.Add(3 * time.Second), To: simT0.Add(time.Hour)}, 0)
	if len(recs) != 2 {
		t.Errorf("time-filtered range = %d, want 2", len(recs))
	}
	// Limit applies after the merge.
	recs, _ = c.Coordinator.Range(ctx, world1, window, 3)
	if len(recs) != 3 {
		t.Errorf("limited range = %d, want 3", len(recs))
	}
}

func TestDistributedKNN(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	// A diagonal line of observations, each on its nearest camera.
	var obs []wire.Observation
	net := c.Coordinator.Network()
	for i := 0; i < 16; i++ {
		p := geo.Pt(float64(i)*60+30, float64(i)*60+30)
		covering := net.CamerasCovering(p)
		if len(covering) == 0 {
			t.Fatalf("no camera covers %v", p)
		}
		obs = append(obs, obsAt(uint64(i+1), uint32(covering[0]), p, simT0.Add(time.Second), nil))
	}
	ingestDirect(t, c, obs...)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	got, err := c.Coordinator.KNN(ctx, geo.Pt(0, 0), window, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("kNN = %d results", len(got))
	}
	for i, n := range got {
		if n.ObsID != uint64(i+1) {
			t.Fatalf("kNN order wrong: %+v", got)
		}
		if i > 0 && got[i].Dist2 < got[i-1].Dist2 {
			t.Fatal("kNN not sorted")
		}
	}
	if _, err := c.Coordinator.KNN(ctx, geo.Pt(0, 0), window, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIngestRejectsUnownedCamera(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	// Send camera 1's batch to the worker owning a different partition.
	a := c.Coordinator.Assignment()
	var wrongWorker *Worker
	for _, w := range c.Workers {
		if w.ID() != a[1] {
			wrongWorker = w
			break
		}
	}
	resp, err := c.Transport.Call(ctx, wrongWorker.Addr(), &wire.IngestBatch{
		Camera:       1,
		Observations: []wire.Observation{obsAt(1, 1, geo.Pt(10, 10), simT0, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.IngestAck)
	if ack.Accepted != 0 || ack.Rejected != 1 {
		t.Errorf("ack = %+v, want 0 accepted / 1 rejected", ack)
	}
}

// TestProxyIngestStampsCameraHint: an observation without its own camera,
// sent through the coordinator in a single-camera batch, routes by the
// batch's hint and is indexed under that camera by the owning worker.
func TestProxyIngestStampsCameraHint(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.IngestBatch{
		Camera:       1,
		Observations: []wire.Observation{obsAt(1, 0, geo.Pt(10, 10), simT0, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.IngestAck); ack.Accepted != 1 || ack.Rejected != 0 {
		t.Fatalf("ack = %+v, want 1 accepted / 0 rejected", ack)
	}
	recs, err := c.Coordinator.Range(ctx, world1, wire.TimeWindow{From: simT0, To: simT0.Add(time.Second)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Camera != 1 {
		t.Errorf("indexed %+v, want one record from camera 1", recs)
	}
}

func TestContinuousQueryIncrementalUpdates(t *testing.T) {
	c := newTestCluster(t, 2, Options{LostAfter: time.Hour}) // no expiry noise
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	region := geo.RectOf(0, 0, 300, 300)
	_, ch, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, region, 0)
	if err != nil {
		t.Fatal(err)
	}
	rngFeat := vision.NewRandomFeature(newRand(1), 32)
	// Target enters the region...
	ingestDirect(t, c, obsAt(1, 1, geo.Pt(100, 100), simT0.Add(time.Second), rngFeat))
	upd := mustUpdate(t, ch)
	if len(upd.Positive) != 1 || len(upd.Negative) != 0 {
		t.Fatalf("enter update = %+v", upd)
	}
	target := upd.Positive[0].TargetID
	if target == 0 {
		t.Fatal("positive update lacks target ID")
	}
	// ...moves within it (no update)...
	ingestDirect(t, c, obsAt(2, 1, geo.Pt(150, 150), simT0.Add(2*time.Second), rngFeat))
	// ...and leaves it.
	ingestDirect(t, c, obsAt(3, 1, geo.Pt(450, 450), simT0.Add(3*time.Second), rngFeat))
	upd = mustUpdate(t, ch)
	if len(upd.Negative) != 1 || upd.Negative[0].TargetID != target {
		t.Fatalf("leave update = %+v", upd)
	}
	select {
	case extra := <-ch:
		t.Fatalf("unexpected extra update %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestContinuousReplayMatchesSnapshot(t *testing.T) {
	// DESIGN invariant: replaying +/- deltas reproduces the snapshot answer.
	opts := Options{LostAfter: time.Hour}
	c := newTestCluster(t, 3, opts)
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	region := geo.RectOf(200, 200, 800, 800)
	_, ch, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, region, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drive a small simulation through the cluster.
	w, err := sim.NewWorld(sim.Config{
		World:      world1,
		NumObjects: 12,
		Model:      &sim.RandomWaypoint{World: world1, MinSpeed: 30, MaxSpeed: 60},
		Seed:       3,
		FeatureDim: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{Seed: 4})
	ing := NewIngester(c.Coordinator, c.Transport)
	net := c.Coordinator.Network()
	w.Run(40, net, det, func(_ int, obs []vision.Detection) {
		if _, err := ing.IngestDetections(ctx, obs); err != nil {
			t.Fatal(err)
		}
	})
	// Replay the deltas.
	inAnswer := map[uint64]bool{}
	drain(ch, func(u wire.ContinuousUpdate) {
		for _, p := range u.Positive {
			inAnswer[p.TargetID] = true
		}
		for _, n := range u.Negative {
			delete(inAnswer, n.TargetID)
		}
	})
	// Snapshot: targets whose LAST observation lies inside the region. Query
	// recent history and keep each target's latest record.
	window := wire.TimeWindow{From: simT0, To: w.Now()}
	recs, err := c.Coordinator.Range(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := map[uint64]wire.ResultRecord{}
	for _, r := range recs {
		if r.TargetID == 0 {
			continue
		}
		if prev, ok := last[r.TargetID]; !ok || r.Time.After(prev.Time) {
			last[r.TargetID] = r
		}
	}
	want := map[uint64]bool{}
	for id, r := range last {
		if region.Contains(r.Pos) {
			want[id] = true
		}
	}
	if len(inAnswer) != len(want) {
		t.Fatalf("replayed answer has %d targets, snapshot has %d\nreplay: %v\nwant: %v",
			len(inAnswer), len(want), inAnswer, want)
	}
	for id := range want {
		if !inAnswer[id] {
			t.Errorf("target %d in snapshot but not in replayed answer", id)
		}
	}
}

func mustUpdate(t *testing.T, ch <-chan wire.ContinuousUpdate) wire.ContinuousUpdate {
	t.Helper()
	select {
	case u := <-ch:
		return u
	case <-time.After(2 * time.Second):
		t.Fatal("no continuous update arrived")
		return wire.ContinuousUpdate{}
	}
}

func drain(ch <-chan wire.ContinuousUpdate, fn func(wire.ContinuousUpdate)) {
	for {
		select {
		case u := <-ch:
			fn(u)
		default:
			return
		}
	}
}
