package core

import (
	"slices"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

func TestReplicationNoDuplicatesAndNoLoss(t *testing.T) {
	opts := Options{Replicas: 1, HeartbeatTimeout: 50 * time.Millisecond}
	c, faulty := newFaultyTestCluster(t, 3, opts)
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	// Every camera must have a primary route plus one replica route.
	for cam := range c.Coordinator.Assignment() {
		routes := c.Coordinator.RoutesFor(cam)
		if len(routes) != 2 {
			t.Fatalf("camera %d has %d routes, want 2", cam, len(routes))
		}
		if routes[0] == routes[1] {
			t.Fatalf("camera %d replica equals primary", cam)
		}
	}

	// Ingest one observation per camera via the replica-aware Ingester.
	ing := NewIngester(c.Coordinator, c.Transport)
	var dets []vision.Detection
	cams := gridCams(world1, 3)
	for i, ci := range cams {
		dets = append(dets, vision.Detection{
			ObsID: uint64(i + 1), Camera: camera.ID(ci.ID), Pos: ci.Pos,
			Time: simT0.Add(time.Duration(i) * time.Second),
		})
	}
	accepted, err := ing.IngestDetections(ctx, dets)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 9 {
		t.Fatalf("accepted = %d", accepted)
	}
	// Replicated copies exist: total stored across workers exceeds 9.
	totalStored := 0
	for _, w := range c.Workers {
		totalStored += w.Store().Len()
	}
	if totalStored != 18 {
		t.Fatalf("total stored = %d, want 18 (9 primaries + 9 replicas)", totalStored)
	}
	// But queries see each observation exactly once.
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	recs, err := c.Coordinator.Range(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("range = %d records, want 9 (no duplicates)", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Fatalf("duplicate ObsID %d in results", r.ObsID)
		}
		seen[r.ObsID] = true
	}
	if n, _ := c.Coordinator.Count(ctx, world1, window); n != 9 {
		t.Errorf("count = %d, want 9", n)
	}
	nn, err := c.Coordinator.KNN(ctx, world1.Center(), window, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 9 {
		t.Fatalf("knn = %d, want 9", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].ObsID == nn[i-1].ObsID {
			t.Fatal("duplicate neighbor from replica")
		}
	}
	checkReplicaFiltered(t, c, window, "before promotion")

	// Kill a worker: with replication, history completeness stays 1.0.
	dead := c.Workers[0]
	faulty.SetPartitioned(dead.Addr(), true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range c.Workers[1:] {
			w.SendHeartbeat(ctx) //nolint:errcheck // best-effort in test loop
		}
		if died := c.Coordinator.Sweep(ctx, time.Now()); len(died) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	recs, err = c.Coordinator.Range(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Errorf("post-failure range = %d records, want 9 (replicas promoted)", len(recs))
	}
	seen = map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Fatalf("duplicate ObsID %d after promotion", r.ObsID)
		}
		seen[r.ObsID] = true
	}
	checkReplicaFiltered(t, c, window, "after promotion")
}

// checkReplicaFiltered asserts that the heatmap and filter answers over the
// whole world count each of the 9 ingested observations exactly once, with
// every camera held by a primary and a standby.
func checkReplicaFiltered(t *testing.T, c *Cluster, window wire.TimeWindow, when string) {
	t.Helper()
	cells, err := c.Coordinator.Heatmap(ctx, world1, window, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, cell := range cells {
		sum += cell.Count
	}
	if sum != 9 {
		t.Errorf("%s: heatmap counts sum to %d, want 9", when, sum)
	}
	recs, _, _, err := c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: world1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Errorf("%s: filter returned ObsID %d twice", when, r.ObsID)
		}
		seen[r.ObsID] = true
	}
	if len(recs) != 9 {
		t.Errorf("%s: filter = %d records, want 9", when, len(recs))
	}
}

func TestReplicationDisabledByDefault(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	for cam := range c.Coordinator.Assignment() {
		if routes := c.Coordinator.RoutesFor(cam); len(routes) != 1 {
			t.Fatalf("camera %d has %d routes without replication", cam, len(routes))
		}
	}
}

func TestReplicationSingleWorkerNoReplicas(t *testing.T) {
	// One worker cannot host a distinct replica; placement must not assign
	// the primary as its own standby.
	c := newTestCluster(t, 1, Options{Replicas: 2})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	for cam := range c.Coordinator.Assignment() {
		if routes := c.Coordinator.RoutesFor(cam); len(routes) != 1 {
			t.Fatalf("camera %d has %d routes on a 1-worker cluster", cam, len(routes))
		}
	}
}

// detectionsAtCameras builds one detection per camera at its mount point.
func detectionsAtCameras(cams []wire.CameraInfo) []vision.Detection {
	out := make([]vision.Detection, len(cams))
	for i, ci := range cams {
		out[i] = vision.Detection{
			ObsID: uint64(i + 1), Camera: camera.ID(ci.ID), Pos: ci.Pos,
			Time: simT0.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// TestRendezvousPlacementPinned pins hash-partitioned primaries and their
// rendezvous replica placement for a fixed camera and node set, so a change
// to the shared rendezvous score cannot silently move a deployment's
// cameras or standby copies.
func TestRendezvousPlacementPinned(t *testing.T) {
	want := []struct {
		cam      uint32
		primary  wire.NodeID
		replicas []wire.NodeID
	}{
		{0x1, "w02", []wire.NodeID{"w03", "w01"}},
		{0x2, "w05", []wire.NodeID{"w04", "w03"}},
		{0x3, "w04", []wire.NodeID{"w05", "w01"}},
		{0x4, "w01", []wire.NodeID{"w03", "w02"}},
		{0x5, "w04", []wire.NodeID{"w05", "w02"}},
		{0x6, "w03", []wire.NodeID{"w02", "w01"}},
		{0x7, "w01", []wire.NodeID{"w02", "w03"}},
		{0x8, "w05", []wire.NodeID{"w04", "w01"}},
		{0x1020304, "w05", []wire.NodeID{"w04", "w01"}},
		{0xfffffffe, "w04", []wire.NodeID{"w05", "w02"}},
	}
	cams := make([]wire.CameraInfo, len(want))
	for i, w := range want {
		cams[i] = wire.CameraInfo{ID: w.cam}
	}
	nodes := []wire.NodeID{"w01", "w02", "w03", "w04", "w05"}
	primary := (&cluster.HashPartitioner{}).Partition(cams, nodes)
	replicas := replicaPlacement(cams, nodes, primary, 2)
	for _, w := range want {
		if primary[w.cam] != w.primary || !slices.Equal(replicas[w.cam], w.replicas) {
			t.Errorf("camera %#x: primary %s replicas %v, want %s %v", w.cam, primary[w.cam], replicas[w.cam], w.primary, w.replicas)
		}
	}
}
