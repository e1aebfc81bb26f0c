package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"stcam/internal/camera"
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

// rowIngester is the serialIngester with one detection per batch, so stage 2
// never evaluates more than one row at a time. It delivers a frame in the
// (camera, observation ID) order the batched paths apply it in.
type rowIngester struct{ serialIngester }

func (r rowIngester) IngestDetections(ctx context.Context, dets []vision.Detection) (int, error) {
	dets = slices.Clone(dets)
	slices.SortFunc(dets, func(a, b vision.Detection) int {
		return cmp.Or(cmp.Compare(a.Camera, b.Camera), cmp.Compare(a.ObsID, b.ObsID))
	})
	accepted := 0
	for _, d := range dets {
		n, err := r.serialIngester.IngestDetections(ctx, []vision.Detection{d})
		if err != nil {
			return accepted, err
		}
		accepted += n
	}
	return accepted, nil
}

// TestDifferentialStagedEvaluation: ingest stage 2 evaluates only the
// associated rows of a batch, read in place. Frames that mix featureless
// rows with featured ones, inside a continuous geofence and on a resident
// track, must yield the same ContinuousUpdate and TrackUpdate sequences
// through the coalescing Ingester (one multi-camera batch per frame), the
// serial reference (one batch per camera) and one batch per detection.
func TestDifferentialStagedEvaluation(t *testing.T) {
	region := geo.RectOf(0, 0, 500, 500)
	tracked := vision.NewRandomFeature(newRand(41), 32)
	walker := vision.NewRandomFeature(newRand(42), 32)
	var frames [][]vision.Detection
	obsID := uint64(100)
	for k := 0; k < 6; k++ {
		at := simT0.Add(time.Duration(k+1) * time.Second)
		var dets []vision.Detection
		add := func(cam camera.ID, p geo.Point, feat vision.Feature) {
			obsID++
			dets = append(dets, vision.Detection{ObsID: obsID, Camera: cam, Time: at, Pos: p, Feature: feat})
		}
		add(1, geo.Pt(120+float64(10*k), 80), nil)
		trackedAt := geo.Pt(100+float64(20*k), 100) // in the region on even frames
		if k%2 == 1 {
			trackedAt = geo.Pt(700, 700)
		}
		add(1, trackedAt, tracked)
		add(3, geo.Pt(200, 300+float64(k)), nil)
		walkerAt := geo.Pt(800, 200) // enters the region on frame 2, leaves on 4
		if k >= 2 && k < 4 {
			walkerAt = geo.Pt(400, 250)
		}
		add(2, walkerAt, walker)
		add(2, geo.Pt(450, 450), nil)
		frames = append(frames, dets)
	}

	run := func(drive func(*Cluster) detectionIngester) (conts, tracks []string) {
		c := newTestCluster(t, 1, Options{LostAfter: time.Hour})
		if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
			t.Fatal(err)
		}
		_, contCh, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, region, 0)
		if err != nil {
			t.Fatal(err)
		}
		ingestDirect(t, c, obsAt(1, 1, geo.Pt(90, 100), simT0, tracked))
		_, trackCh, err := c.Coordinator.StartTrack(ctx, 1, tracked, simT0)
		if err != nil {
			t.Fatal(err)
		}
		drain(contCh, func(wire.ContinuousUpdate) {}) // the enrolment's own entry
		ing := drive(c)
		for _, dets := range frames {
			if _, err := ing.IngestDetections(ctx, dets); err != nil {
				t.Fatal(err)
			}
		}
		drain(contCh, func(u wire.ContinuousUpdate) {
			conts = append(conts, fmt.Sprintf("t=%d +%v -%v n=%d", u.Time.UnixNano(), u.Positive, u.Negative, u.Count))
		})
		for len(trackCh) > 0 {
			u := <-trackCh
			tracks = append(tracks, fmt.Sprintf("track %d cam %d %v t=%d lost=%v", u.TrackID, u.Camera, u.Pos, u.Time.UnixNano(), u.Lost))
		}
		return conts, tracks
	}
	coalesced := func(c *Cluster) detectionIngester {
		ing := NewIngester(c.Coordinator, c.Transport)
		t.Cleanup(ing.Close)
		return ing
	}
	serial := func(c *Cluster) detectionIngester { return serialIngester{c.Coordinator, c.Transport} }
	perRow := func(c *Cluster) detectionIngester { return rowIngester{serialIngester{c.Coordinator, c.Transport}} }

	wantConts, wantTracks := run(serial)
	if len(wantConts) < 4 || len(wantTracks) < len(frames) {
		t.Fatalf("vacuous reference: %d continuous updates, %d track updates", len(wantConts), len(wantTracks))
	}
	for name, drive := range map[string]func(*Cluster) detectionIngester{"coalesced": coalesced, "per-row": perRow} {
		conts, tracks := run(drive)
		if !slices.Equal(conts, wantConts) {
			t.Errorf("%s: continuous updates diverged from the serial reference\ngot:  %q\nwant: %q", name, conts, wantConts)
		}
		if !slices.Equal(tracks, wantTracks) {
			t.Errorf("%s: track updates diverged from the serial reference\ngot:  %q\nwant: %q", name, tracks, wantTracks)
		}
	}
}
