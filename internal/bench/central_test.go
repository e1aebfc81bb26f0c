package bench

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

var centralT0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func centralDet(id uint64, cam camera.ID, p geo.Point, at time.Time, f vision.Feature) vision.Detection {
	return vision.Detection{ObsID: id, Camera: cam, Pos: p, Time: at, Feature: f}
}

func TestCentralIngestAndQueries(t *testing.T) {
	c := newCentral(0)
	rng := rand.New(rand.NewSource(1))
	f1 := vision.NewRandomFeature(rng, 32)
	f2 := vision.NewRandomFeature(rng, 32)
	c.Ingest([]vision.Detection{
		centralDet(1, 1, geo.Pt(10, 10), centralT0, f1),
		centralDet(2, 2, geo.Pt(500, 500), centralT0.Add(time.Second), f2),
		centralDet(3, 3, geo.Pt(20, 15), centralT0.Add(2*time.Second), f1.Perturb(rng, 0.05)),
	})
	if c.Stored() != 3 {
		t.Fatalf("Stored = %d", c.Stored())
	}
	window := wire.TimeWindow{From: centralT0, To: centralT0.Add(time.Hour)}
	recs := c.Range(geo.RectOf(0, 0, 100, 100), window, 0)
	if len(recs) != 2 {
		t.Fatalf("range = %d records", len(recs))
	}
	// Same identity associated across observations 1 and 3, another for 2.
	if recs[0].TargetID == 0 || recs[0].TargetID != recs[1].TargetID {
		t.Errorf("association failed: %+v", recs)
	}
	if far := c.Range(geo.RectOf(400, 400, 600, 600), window, 0); len(far) != 1 || far[0].TargetID == recs[0].TargetID {
		t.Errorf("distinct identity not kept apart: %+v vs %+v", far, recs)
	}
	nn := c.KNN(geo.Pt(0, 0), window, 2)
	if len(nn) != 2 || nn[0].ObsID != 1 || nn[1].ObsID != 3 {
		t.Errorf("knn = %+v", nn)
	}
	if got := c.Range(geo.RectOf(0, 0, 1000, 1000), window, 1); len(got) != 1 {
		t.Errorf("limited range = %d", len(got))
	}
}

// TestCentralMatchesDistributedSemantics: on one seeded workload the
// centralized baseline and a distributed cluster fed the same batches return
// the same observations for every Range and kNN query, and Range matches a
// brute-force scan, so R1, R2 and R10 compare equal work.
func TestCentralMatchesDistributedSemantics(t *testing.T) {
	ctx := context.Background()
	wl := makeWorkload(8, 120, 20, 7)
	c := newCentral(50)
	for _, b := range wl.batches {
		c.Ingest(b)
	}
	dist, err := core.NewLocalCluster(4, nil, core.Options{CellSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Stop()
	if err := dist.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
		t.Fatal(err)
	}
	if accepted, _ := ingestAll(ctx, dist, wl); accepted != wl.totalObs() || c.Stored() != accepted {
		t.Fatalf("central stored %d, cluster accepted %d, of %d observations", c.Stored(), accepted, wl.totalObs())
	}

	full := fullWindow(wl)
	span := full.To.Sub(full.From)
	rng := rand.New(rand.NewSource(8))
	matched := 0
	for trial := 0; trial < 50; trial++ {
		center := geo.Pt(rng.Float64()*wl.world.Width(), rng.Float64()*wl.world.Height())
		rect := geo.RectAround(center, 50+rng.Float64()*250)
		from := full.From.Add(time.Duration(rng.Int63n(int64(span))))
		window := wire.TimeWindow{From: from, To: from.Add(time.Duration(rng.Int63n(int64(span))))}

		var brute []uint64
		for _, b := range wl.batches {
			for _, d := range b {
				if rect.Contains(d.Pos) && !d.Time.Before(window.From) && !d.Time.After(window.To) {
					brute = append(brute, d.ObsID)
				}
			}
		}
		distRange, err := dist.Coordinator.Range(ctx, rect, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedIDs(brute)
		if got := sortedIDs(resultIDs(c.Range(rect, window, 0))); !slices.Equal(got, want) {
			t.Fatalf("trial %d: central range holds %d observations, brute force %d", trial, len(got), len(want))
		}
		if got := sortedIDs(resultIDs(distRange)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: distributed range holds %d observations, brute force %d", trial, len(got), len(want))
		}

		distKNN, err := dist.Coordinator.KNN(ctx, center, window, 10)
		if err != nil {
			t.Fatal(err)
		}
		centKNN := c.KNN(center, window, 10)
		matched += len(want) + len(centKNN)
		if got, want := sortedIDs(knnIDs(centKNN)), sortedIDs(knnIDs(distKNN)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: central kNN %v, distributed %v", trial, got, want)
		}
	}
	if matched == 0 {
		t.Fatal("every query answered empty; the comparison proved nothing")
	}
}

func resultIDs(recs []wire.ResultRecord) []uint64 {
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ObsID
	}
	return ids
}

func knnIDs(recs []wire.KNNRecord) []uint64 {
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ObsID
	}
	return ids
}

func sortedIDs(ids []uint64) []uint64 {
	slices.Sort(ids)
	return ids
}
