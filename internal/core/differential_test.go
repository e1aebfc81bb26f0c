package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// The differential suite is the equivalence proof for the pipelined ingest
// path: on identical seeded simulation workloads, the pipelined+coalesced
// Ingester must leave every worker's stindex byte-identical to the serial
// baseline's and answer Range/kNN/trajectory/Count queries identically.

// detectionIngester is a synchronous ingest path under test: the Ingester or
// the serialIngester reference.
type detectionIngester interface {
	IngestDetections(context.Context, []vision.Detection) (int, error)
}

// serialIngester is the pre-pipeline delivery path, kept as the differential
// reference: one unsequenced blocking RPC per camera group, primary then
// replicas, in ascending camera order (each group sorted so identity
// association matches the Ingester's coalesced batches observation for
// observation).
type serialIngester struct {
	coord     *Coordinator
	transport cluster.Transport
}

func (s serialIngester) IngestDetections(ctx context.Context, dets []vision.Detection) (int, error) {
	byCam := make(map[uint32][]wire.Observation)
	for _, d := range dets {
		obs := observationOf(d)
		byCam[obs.Camera] = append(byCam[obs.Camera], obs)
	}
	cams := make([]uint32, 0, len(byCam))
	for cam := range byCam {
		cams = append(cams, cam)
	}
	sort.Slice(cams, func(i, j int) bool { return cams[i] < cams[j] })
	accepted := 0
	var firstErr error
	for _, cam := range cams {
		obs := byCam[cam]
		sortObservations(obs)
		for i, addr := range s.coord.RoutesFor(cam) {
			resp, err := s.transport.Call(ctx, addr, &wire.IngestBatch{Camera: cam, Observations: obs})
			if err != nil {
				if firstErr == nil && i == 0 {
					firstErr = err
				}
				continue
			}
			// Accepted counts primary-owner inserts only, so summing across
			// the primary and replica acks never double-counts.
			if ack, ok := resp.(*wire.IngestAck); ok {
				accepted += ack.Accepted
			}
		}
	}
	return accepted, firstErr
}

// ingestOutcome captures everything the differential comparison looks at.
type ingestOutcome struct {
	accepted   int
	stores     map[wire.NodeID]string // per-worker canonical index dump
	rangeFull  []wire.ResultRecord
	rangeSub   []wire.ResultRecord
	count      int
	knn        []wire.KNNRecord
	trajs      map[uint64][]wire.ResultRecord
	storeBytes int
}

// dumpStore serializes a worker's entire index in canonical (ObsID, Camera)
// order. Byte equality of two dumps means record-for-record identical
// indexes, target IDs included.
func dumpStore(w *Worker) string {
	recs := w.Store().RangeQuery(geo.RectOf(-1e9, -1e9, 1e9, 1e9),
		simT0.Add(-time.Hour), simT0.Add(1000*time.Hour))
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].ObsID != recs[j].ObsID {
			return recs[i].ObsID < recs[j].ObsID
		}
		return recs[i].Camera < recs[j].Camera
	})
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%d|%d|%d|%.9f|%.9f|%d\n",
			r.ObsID, r.TargetID, r.Camera, r.Pos.X, r.Pos.Y, r.Time.UnixNano())
	}
	return b.String()
}

// ingestMode names one delivery strategy under test.
type ingestMode struct {
	name   string
	opts   IngesterOptions
	async  bool // drive via IngestDetectionsAsync + Flush instead of sync calls
	serial bool // drive the serialIngester reference instead of the Ingester
}

// runIngestWorkload assembles a fresh cluster, replays the same seeded
// simulation through the given ingest mode, and captures the outcome.
func runIngestWorkload(t *testing.T, workers, replicas int, mode ingestMode) ingestOutcome {
	t.Helper()
	c := newTestCluster(t, workers, Options{Replicas: replicas, LostAfter: time.Hour})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		World:      world1,
		NumObjects: 20,
		Model:      &sim.RandomWaypoint{World: world1, MinSpeed: 30, MaxSpeed: 60},
		Seed:       7,
		FeatureDim: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{Seed: 8})
	ing := NewIngesterWith(c.Coordinator, c.Transport, mode.opts)
	defer ing.Close()
	var drive detectionIngester = ing
	if mode.serial {
		drive = serialIngester{c.Coordinator, c.Transport}
	}
	accepted := 0
	w.Run(30, c.Coordinator.Network(), det, func(_ int, dets []vision.Detection) {
		if mode.async {
			ing.IngestDetectionsAsync(ctx, dets)
			return
		}
		n, err := drive.IngestDetections(ctx, dets)
		if err != nil {
			t.Fatal(err)
		}
		accepted += n
	})
	if mode.async {
		n, err := ing.Flush()
		if err != nil {
			t.Fatal(err)
		}
		accepted = n
	}

	out := ingestOutcome{accepted: accepted, stores: make(map[wire.NodeID]string)}
	for _, wk := range c.Workers {
		dump := dumpStore(wk)
		out.stores[wk.ID()] = dump
		out.storeBytes += len(dump)
	}
	window := wire.TimeWindow{From: simT0, To: w.Now().Add(time.Second)}
	if out.rangeFull, err = c.Coordinator.Range(ctx, world1, window, 0); err != nil {
		t.Fatal(err)
	}
	sub := geo.RectOf(200, 200, 700, 700)
	if out.rangeSub, err = c.Coordinator.Range(ctx, sub, window, 0); err != nil {
		t.Fatal(err)
	}
	if out.count, err = c.Coordinator.Count(ctx, sub, window); err != nil {
		t.Fatal(err)
	}
	if out.knn, err = c.Coordinator.KNN(ctx, geo.Pt(500, 500), window, 10); err != nil {
		t.Fatal(err)
	}
	// Trajectories for every associated target the full range answer saw.
	out.trajs = make(map[uint64][]wire.ResultRecord)
	for _, r := range out.rangeFull {
		if r.TargetID == 0 {
			continue
		}
		if _, done := out.trajs[r.TargetID]; done {
			continue
		}
		traj, err := c.Coordinator.Trajectory(ctx, r.TargetID, window)
		if err != nil {
			t.Fatal(err)
		}
		out.trajs[r.TargetID] = traj
	}
	return out
}

func recordsEqual(a, b []wire.ResultRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObsID != b[i].ObsID || a[i].TargetID != b[i].TargetID ||
			a[i].Camera != b[i].Camera || a[i].Pos != b[i].Pos || !a[i].Time.Equal(b[i].Time) {
			return false
		}
	}
	return true
}

func diffOutcomes(t *testing.T, label string, base, got ingestOutcome) {
	t.Helper()
	if got.accepted != base.accepted {
		t.Errorf("%s: accepted %d, serial accepted %d", label, got.accepted, base.accepted)
	}
	for node, dump := range base.stores {
		if got.stores[node] != dump {
			t.Errorf("%s: worker %s index diverged from serial baseline (%d vs %d bytes)",
				label, node, len(got.stores[node]), len(dump))
		}
	}
	if !recordsEqual(got.rangeFull, base.rangeFull) {
		t.Errorf("%s: full-world range answer diverged (%d vs %d records)",
			label, len(got.rangeFull), len(base.rangeFull))
	}
	if !recordsEqual(got.rangeSub, base.rangeSub) {
		t.Errorf("%s: sub-rect range answer diverged", label)
	}
	if got.count != base.count {
		t.Errorf("%s: count %d, serial %d", label, got.count, base.count)
	}
	if len(got.knn) != len(base.knn) {
		t.Errorf("%s: knn answer size %d, serial %d", label, len(got.knn), len(base.knn))
	} else {
		for i := range got.knn {
			if got.knn[i].ObsID != base.knn[i].ObsID || got.knn[i].Dist2 != base.knn[i].Dist2 {
				t.Errorf("%s: knn[%d] diverged: %+v vs %+v", label, i, got.knn[i], base.knn[i])
				break
			}
		}
	}
	if len(got.trajs) != len(base.trajs) {
		t.Errorf("%s: %d trajectories, serial %d", label, len(got.trajs), len(base.trajs))
	}
	for id, traj := range base.trajs {
		if !recordsEqual(got.trajs[id], traj) {
			t.Errorf("%s: trajectory of target %d diverged", label, id)
		}
	}
}

// TestDifferentialPipelinedVsSerialIngest replays the same seeded workload
// through the serial baseline, the pipelined sync path, and the pipelined
// async path, across worker counts and replica factors, and requires zero
// divergence in index contents and query answers.
func TestDifferentialPipelinedVsSerialIngest(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		for _, replicas := range []int{0, 1} {
			t.Run(fmt.Sprintf("workers=%d/replicas=%d", workers, replicas), func(t *testing.T) {
				serial := runIngestWorkload(t, workers, replicas,
					ingestMode{name: "serial", serial: true})
				if serial.accepted == 0 || serial.storeBytes == 0 {
					t.Fatal("serial baseline produced no data; workload is vacuous")
				}
				piped := runIngestWorkload(t, workers, replicas,
					ingestMode{name: "pipelined", opts: IngesterOptions{PipelineDepth: 4}})
				diffOutcomes(t, "pipelined", serial, piped)
				async := runIngestWorkload(t, workers, replicas,
					ingestMode{name: "async", opts: IngesterOptions{PipelineDepth: 4}, async: true})
				diffOutcomes(t, "async", serial, async)
			})
		}
	}
}
