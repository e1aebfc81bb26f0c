package core

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// The pruned-engine differential suite: on identical seeded workloads the
// pruned scatter-gather engine (summary pruning + two-phase kNN + pushed-down
// bounds) must answer every query identically to broadcast fan-out
// (DisablePrune) — including under injected transport faults that the retry
// layer absorbs. Pruning is an optimization, never an answer change.

// heartbeatAll refreshes every worker's summary at the coordinator, making
// the sketches current with whatever the test just ingested (production
// freshness is heartbeat-bounded; the suite pins it for determinism).
func heartbeatAll(t *testing.T, c *Cluster) {
	t.Helper()
	for _, w := range c.Workers {
		if err := w.SendHeartbeat(ctx); err != nil {
			t.Fatalf("heartbeat %s: %v", w.ID(), err)
		}
	}
}

// queryBattery is every read answer the differential comparison looks at.
type queryBattery struct {
	rangeFull []wire.ResultRecord
	rangeSub  []wire.ResultRecord
	rangeLim  []wire.ResultRecord
	rangeFar  []wire.ResultRecord // corner rect most workers hold nothing in
	rangeOld  []wire.ResultRecord // time window before all data
	count     int
	countFar  int
	knn       [][]wire.KNNRecord
	heat      []wire.HeatCell
	filter    []wire.ResultRecord
	pruned    int // total workers pruned across the battery
	asked     int
}

// runQueryBattery fires the same fixed query set against a cluster.
func runQueryBattery(t *testing.T, c *Cluster, until time.Time) queryBattery {
	t.Helper()
	var (
		out    queryBattery
		err    error
		meta   QueryMeta
		window = wire.TimeWindow{From: simT0, To: until}
		early  = wire.TimeWindow{From: simT0.Add(-2 * time.Hour), To: simT0.Add(-time.Hour)}
		sub    = geo.RectOf(200, 200, 700, 700)
		far    = geo.RectOf(0, 0, 120, 120)
	)
	if out.rangeFull, meta, err = rangeDecoded(c.Coordinator, world1, window, 0); err != nil {
		t.Fatal(err)
	}
	out.pruned, out.asked = out.pruned+meta.Pruned, out.asked+meta.Asked
	if out.rangeSub, meta, err = rangeDecoded(c.Coordinator, sub, window, 0); err != nil {
		t.Fatal(err)
	}
	out.pruned, out.asked = out.pruned+meta.Pruned, out.asked+meta.Asked
	if out.rangeLim, _, err = rangeDecoded(c.Coordinator, world1, window, 25); err != nil {
		t.Fatal(err)
	}
	if out.rangeFar, meta, err = rangeDecoded(c.Coordinator, far, window, 0); err != nil {
		t.Fatal(err)
	}
	out.pruned, out.asked = out.pruned+meta.Pruned, out.asked+meta.Asked
	if out.rangeOld, meta, err = rangeDecoded(c.Coordinator, world1, early, 0); err != nil {
		t.Fatal(err)
	}
	out.pruned, out.asked = out.pruned+meta.Pruned, out.asked+meta.Asked
	if out.count, _, err = c.Coordinator.CountMeta(ctx, sub, window); err != nil {
		t.Fatal(err)
	}
	if out.countFar, _, err = c.Coordinator.CountMeta(ctx, far, window); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		p geo.Point
		k int
	}{
		{geo.Pt(500, 500), 10},
		{geo.Pt(50, 50), 3},
		{geo.Pt(980, 20), 7},
		{geo.Pt(500, 500), 100000}, // k beyond the dataset: full ordered dump
	} {
		recs, m, err := c.Coordinator.KNNMeta(ctx, q.p, window, q.k)
		if err != nil {
			t.Fatal(err)
		}
		out.knn = append(out.knn, recs)
		out.pruned, out.asked = out.pruned+m.Pruned, out.asked+m.Asked
	}
	if out.heat, err = c.Coordinator.Heatmap(ctx, world1, window, 100); err != nil {
		t.Fatal(err)
	}
	if out.filter, _, _, err = c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: sub, Window: window}); err != nil {
		t.Fatal(err)
	}
	return out
}

func knnEqual(a, b []wire.KNNRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObsID != b[i].ObsID || a[i].Dist2 != b[i].Dist2 {
			return false
		}
	}
	return true
}

func diffBatteries(t *testing.T, label string, base, got queryBattery) {
	t.Helper()
	for _, cmp := range []struct {
		name string
		a, b []wire.ResultRecord
	}{
		{"rangeFull", base.rangeFull, got.rangeFull},
		{"rangeSub", base.rangeSub, got.rangeSub},
		{"rangeLim", base.rangeLim, got.rangeLim},
		{"rangeFar", base.rangeFar, got.rangeFar},
		{"rangeOld", base.rangeOld, got.rangeOld},
		{"filter", base.filter, got.filter},
	} {
		if !recordsEqual(cmp.a, cmp.b) {
			t.Errorf("%s: %s diverged (%d vs %d records)", label, cmp.name, len(cmp.b), len(cmp.a))
		}
	}
	if base.count != got.count || base.countFar != got.countFar {
		t.Errorf("%s: counts diverged: (%d,%d) vs (%d,%d)",
			label, got.count, got.countFar, base.count, base.countFar)
	}
	if len(base.knn) != len(got.knn) {
		t.Fatalf("%s: knn battery size mismatch", label)
	}
	for i := range base.knn {
		if !knnEqual(base.knn[i], got.knn[i]) {
			t.Errorf("%s: knn[%d] diverged (%d vs %d records)", label, i, len(got.knn[i]), len(base.knn[i]))
		}
	}
	if len(base.heat) != len(got.heat) {
		t.Errorf("%s: heatmap diverged (%d vs %d cells)", label, len(got.heat), len(base.heat))
	} else {
		for i := range base.heat {
			if base.heat[i] != got.heat[i] {
				t.Errorf("%s: heatmap cell %d diverged: %+v vs %+v", label, i, got.heat[i], base.heat[i])
				break
			}
		}
	}
}

// runPrunedWorkload builds a cluster over tr (nil = plain in-proc), replays a
// seeded simulation into it, refreshes summaries, and runs the battery.
func runPrunedWorkload(t *testing.T, workers int, opts Options, tr cluster.Transport) queryBattery {
	t.Helper()
	if tr == nil {
		tr = cluster.NewInProc()
	}
	opts.LostAfter = time.Hour
	c, err := NewLocalClusterOver(tr, workers, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
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
	// The serial reference dials workers itself, so on a lossy fabric it needs its
	// own retry layer (cluster nodes get theirs from opts.RetryPolicy).
	ing := serialIngester{c.Coordinator, cluster.NewResilient(c.Transport, opts.RetryPolicy)}
	w.Run(30, c.Coordinator.Network(), det, func(_ int, dets []vision.Detection) {
		if _, err := ing.IngestDetections(ctx, dets); err != nil {
			t.Fatal(err)
		}
	})
	heartbeatAll(t, c)
	return runQueryBattery(t, c, w.Now().Add(time.Second))
}

// TestDifferentialPrunedVsBroadcast is the equivalence proof for the pruned
// engine: across worker counts, every query answer must be identical to the
// broadcast engine's, and on multi-worker clusters pruning must actually
// fire (otherwise the test proves nothing).
func TestDifferentialPrunedVsBroadcast(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			broadcast := runPrunedWorkload(t, workers, Options{DisablePrune: true}, nil)
			if len(broadcast.rangeFull) == 0 {
				t.Fatal("broadcast baseline produced no data; workload is vacuous")
			}
			if broadcast.pruned != 0 {
				t.Fatalf("broadcast engine pruned %d workers", broadcast.pruned)
			}
			pruned := runPrunedWorkload(t, workers, Options{}, nil)
			diffBatteries(t, "pruned", broadcast, pruned)
			if workers > 1 {
				if pruned.pruned == 0 {
					t.Error("pruned engine never pruned a worker; differential proof is vacuous")
				}
				if pruned.asked >= broadcast.asked {
					t.Errorf("pruned engine asked %d workers, broadcast %d — no fan-out saving",
						pruned.asked, broadcast.asked)
				}
			}
		})
	}
}

// TestDifferentialPrunedUnderFaults repeats the equivalence proof with
// lossy links: every worker link drops 20% of calls, duplicates some, and
// delays the rest, all absorbed by the retry layer. Summaries riding on
// retried heartbeats and probes crossing a lossy fabric must not change any
// answer.
func TestDifferentialPrunedUnderFaults(t *testing.T) {
	lossy := func() cluster.Transport {
		f := cluster.NewFaulty(cluster.NewInProc(), 42)
		for i := 1; i <= 8; i++ {
			f.SetProgram(fmt.Sprintf("worker-%02d", i), cluster.FaultProgram{
				Drop:      0.2,
				Duplicate: 0.1,
				Latency:   time.Millisecond,
			})
		}
		return f
	}
	opts := func(disable bool) Options {
		return Options{
			DisablePrune: disable,
			RetryPolicy:  cluster.Policy{MaxAttempts: 8, BaseBackoff: time.Millisecond, FailureThreshold: 1000},
		}
	}
	broadcast := runPrunedWorkload(t, 8, opts(true), lossy())
	if len(broadcast.rangeFull) == 0 {
		t.Fatal("broadcast baseline produced no data under faults")
	}
	pruned := runPrunedWorkload(t, 8, opts(false), lossy())
	diffBatteries(t, "pruned+faults", broadcast, pruned)
	if pruned.pruned == 0 {
		t.Error("pruned engine never pruned under faults; proof is vacuous")
	}
}

// TestKNNPartialFailureNeverSilentlyNarrowed kills the one worker that holds
// the true nearest neighbors and checks the contract: the pruned kNN still
// ASKS that worker (its sketch admits matches, so it cannot be pruned), the
// failure surfaces as Answered < Asked — exactly as broadcast reports it —
// and the partial answer is the correctly ordered best-of-the-survivors.
func TestKNNPartialFailureNeverSilentlyNarrowed(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "pruned"
		if disable {
			name = "broadcast"
		}
		t.Run(name, func(t *testing.T) {
			faulty := cluster.NewFaulty(cluster.NewInProc(), 7)
			c, err := NewLocalClusterOver(faulty, 4, nil, Options{
				DisablePrune: disable,
				LostAfter:    time.Hour,
				RetryPolicy:  cluster.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, FailureThreshold: 1000},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
				t.Fatal(err)
			}
			// Cameras sit at (250,250) (750,250) (250,750) (750,750). The
			// query point is near camera 1, so its owner holds the true
			// nearest records; the far corner holds decoys.
			center := geo.Pt(250, 250)
			var obs []wire.Observation
			for i := 0; i < 5; i++ {
				obs = append(obs,
					obsAt(uint64(1+i), 1, geo.Pt(250+float64(i), 250), simT0.Add(time.Duration(i)*time.Second), nil),
					obsAt(uint64(100+i), 4, geo.Pt(750+float64(i), 750), simT0.Add(time.Duration(i)*time.Second), nil))
			}
			ingestDirect(t, c, obs...)
			heartbeatAll(t, c)

			window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Minute)}
			full, meta, err := c.Coordinator.KNNMeta(ctx, center, window, 3)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Answered != meta.Asked {
				t.Fatalf("healthy query incomplete: %+v", meta)
			}
			if len(full) != 3 || full[0].ObsID != 1 {
				t.Fatalf("healthy knn = %+v", full)
			}

			nearAddr, ok := c.Coordinator.RouteFor(1)
			if !ok {
				t.Fatal("no route for camera 1")
			}
			faulty.SetProgram(nearAddr, cluster.FaultProgram{Partition: true})

			part, meta, err := c.Coordinator.KNNMeta(ctx, center, window, 3)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Answered >= meta.Asked {
				t.Fatalf("dead nearest worker not reflected in meta: %+v", meta)
			}
			if meta.Completeness() >= 1 {
				t.Fatalf("completeness %v despite dead worker", meta.Completeness())
			}
			// The dead worker held ObsIDs 1..5; the partial answer must be
			// the ordered decoys, never a silently complete-looking blend.
			if len(part) != 3 {
				t.Fatalf("partial knn returned %d records, want 3 decoys", len(part))
			}
			for i, r := range part {
				if r.ObsID < 100 {
					t.Fatalf("partial knn[%d] = %+v from the dead worker", i, r)
				}
			}
			if !sort.SliceIsSorted(part, func(i, j int) bool {
				if part[i].Dist2 != part[j].Dist2 {
					return part[i].Dist2 < part[j].Dist2
				}
				return part[i].ObsID < part[j].ObsID
			}) {
				t.Fatalf("partial knn not ordered: %+v", part)
			}
		})
	}
}

// TestKNNTwoPhaseProbesFewWorkers pins the tentpole perf property: with data
// spread across a 16-worker cluster and fresh summaries, a localized kNN
// probes only the nearby workers and prunes the rest, while broadcast asks
// everyone.
func TestKNNTwoPhaseProbesFewWorkers(t *testing.T) {
	c := newTestCluster(t, 16, Options{LostAfter: time.Hour})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	// One record per camera, at the camera position: 16 well-separated
	// clusters of one, so distance lower bounds discriminate sharply.
	var obs []wire.Observation
	for i, cam := range gridCams(world1, 4) {
		obs = append(obs, obsAt(uint64(i+1), cam.ID, cam.Pos, simT0.Add(time.Second), nil))
	}
	ingestDirect(t, c, obs...)
	heartbeatAll(t, c)

	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Minute)}
	center := geo.Pt(125, 125) // camera 1's position exactly
	recs, meta, err := c.Coordinator.KNNMeta(ctx, center, window, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ObsID != 1 {
		t.Fatalf("knn = %+v, want obs 1", recs)
	}
	if meta.Asked+meta.Pruned != 16 {
		t.Fatalf("asked %d + pruned %d workers, want 16 accounted", meta.Asked, meta.Pruned)
	}
	if meta.Asked >= 8 {
		t.Errorf("localized k=1 query probed %d of 16 workers; expansion bound is not pruning", meta.Asked)
	}
	if math.IsInf(float64(meta.Pruned), 0) || meta.Pruned == 0 {
		t.Errorf("no workers pruned: meta=%+v", meta)
	}
}
