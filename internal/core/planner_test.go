package core

import (
	"testing"
	"time"

	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// plannerFixture ingests a skewed workload: one "frequent" target with many
// observations spread over the world, one "rare" target with few, plus
// background observations concentrated in a hotspot rectangle.
func plannerFixture(t testing.TB, workers int) (*Cluster, vision.Feature, vision.Feature) {
	t.Helper()
	c := newTestCluster(t, workers, Options{LostAfter: time.Hour, AssocThreshold: 0.7})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	rng := newRand(31)
	frequent := vision.NewRandomFeature(rng, 64)
	rare := vision.NewRandomFeature(rng, 64)
	var obs []wire.Observation
	id := uint64(1)
	add := func(p geo.Point, at time.Duration, f vision.Feature) {
		covering := c.Coordinator.Network().CamerasCovering(p)
		if len(covering) == 0 {
			t.Fatalf("no camera covers %v", p)
		}
		obs = append(obs, wire.Observation{
			ObsID: id, Camera: uint32(covering[0]), Time: simT0.Add(at), Pos: p, Feature: f,
		})
		id++
	}
	// 200 sightings of the frequent target wandering everywhere.
	for i := 0; i < 200; i++ {
		add(geo.Pt(rng.Float64()*1000, rng.Float64()*1000), time.Duration(i)*time.Second, frequent.Perturb(rng, 0.03))
	}
	// 3 sightings of the rare target inside the hotspot.
	for i := 0; i < 3; i++ {
		add(geo.Pt(50+rng.Float64()*100, 50+rng.Float64()*100), time.Duration(300+i)*time.Second, rare.Perturb(rng, 0.03))
	}
	// 500 anonymous background observations in the hotspot (dense region).
	for i := 0; i < 500; i++ {
		add(geo.Pt(rng.Float64()*200, rng.Float64()*200), time.Duration(400+i)*time.Second, nil)
	}
	ingestDirect(t, c, obs...)
	return c, frequent, rare
}

func targetIDOf(t testing.TB, c *Cluster, probe vision.Feature) uint64 {
	t.Helper()
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	for _, w := range c.Workers {
		if hits := w.ReidSearch(probe, window, 0.8); len(hits) > 0 {
			return hits[0].TargetID
		}
	}
	t.Fatal("target not found")
	return 0
}

// TestFilterQueryCorrectness: both plans produce the brute-force answer; the
// coordinator merge is deduplicated and time-ordered.
func TestFilterQueryCorrectness(t *testing.T) {
	c, frequent, _ := plannerFixture(t, 2)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	target := targetIDOf(t, c, frequent)

	rect := geo.RectOf(0, 0, 500, 500)
	recs, plans, err := c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: rect, Window: window, TargetID: target})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans reported")
	}
	// Brute-force expectation from an unfiltered range query.
	all, err := c.Coordinator.Range(ctx, rect, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range all {
		if r.TargetID == target {
			want++
		}
	}
	if len(recs) != want {
		t.Fatalf("filter returned %d records, brute force says %d", len(recs), want)
	}
	for i, r := range recs {
		if r.TargetID != target {
			t.Fatalf("record %d has target %d", i, r.TargetID)
		}
		if i > 0 && recs[i].Time.Before(recs[i-1].Time) {
			t.Fatal("filter results out of order")
		}
	}
	// Camera predicate composes.
	camSet := []uint32{all[0].Camera}
	recs, _, err = c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: rect, Window: window, Cameras: camSet})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Camera != camSet[0] {
			t.Fatalf("camera filter leaked camera %d", r.Camera)
		}
	}
	// Limit applies.
	recs, _, err = c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: world1, Window: window, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("limited filter = %d", len(recs))
	}
}

// TestPlannerAdaptsToSelectivity: on a cold worker, a rare-target query
// picks the target plan, a frequent-target query over a tiny sparse
// rectangle picks the spatial plan, and the same frequent target over the
// dense hotspot picks the target plan.
func TestPlannerAdaptsToSelectivity(t *testing.T) {
	// Single worker: target IDs are namespaced per worker, so plan choice —
	// a per-worker decision — is only meaningful when the target's history
	// lives on the worker answering the query.
	c, frequent, rare := plannerFixture(t, 1)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	rareID := targetIDOf(t, c, rare)
	freqID := targetIDOf(t, c, frequent)

	for _, tc := range []struct {
		name   string
		rect   geo.Rect
		target uint64
		want   string
	}{
		// Scanning 3 history records beats scanning ~500 spatial records.
		{"rare target, dense hotspot", geo.RectOf(0, 0, 200, 200), rareID, "target"},
		// The spatial index wins over walking 200 history records.
		{"frequent target, sparse rect", geo.RectOf(800, 800, 850, 850), freqID, "spatial"},
		// 200 history records beat the hotspot's ~500.
		{"frequent target, dense hotspot", geo.RectOf(0, 0, 200, 200), freqID, "target"},
	} {
		_, plans, err := c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: tc.rect, Window: window, TargetID: tc.target})
		if err != nil {
			t.Fatal(err)
		}
		if plans[tc.want] == 0 {
			t.Errorf("%s: never chose the %s plan: %v", tc.name, tc.want, plans)
		}
	}
}

// TestPlannerPicksCheaperPlan: over a grid of rectangles, each for the rare
// and the frequent target, the chosen plan is the one that visits fewer
// records — the target's history length against the records in the
// rectangle and window, both measured by materializing them.
func TestPlannerPicksCheaperPlan(t *testing.T) {
	c, frequent, rare := plannerFixture(t, 1)
	w := c.Workers[0]
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	ids := []uint64{targetIDOf(t, c, rare), targetIDOf(t, c, frequent)}
	chosen := map[string]int{}
	for x := 0.0; x < 1000; x += 125 {
		for y := 0.0; y < 1000; y += 125 {
			rect := geo.RectOf(x, y, x+125, y+125)
			spatialCost := len(w.store.RangeQuery(rect, window.From, window.To))
			for _, id := range ids {
				targetCost := len(w.store.TargetHistory(id, time.Time{}, simT0.Add(24*time.Hour)))
				want := "spatial"
				if targetCost <= spatialCost {
					want = "target"
				}
				resp, err := w.onFilter(&wire.FilterQuery{Rect: rect, Window: window, TargetID: id})
				if err != nil {
					t.Fatal(err)
				}
				got := resp.(*wire.FilterResult).Plan
				if got != want {
					t.Errorf("rect %v target %d: plan %s, want %s (target %d records, spatial %d)", rect, id, got, want, targetCost, spatialCost)
				}
				chosen[got]++
			}
		}
	}
	if chosen["spatial"] == 0 || chosen["target"] == 0 {
		t.Errorf("the grid exercised only one plan: %v", chosen)
	}
}

// BenchmarkFilterPlan prices planning plus execution of a multi-predicate
// query on the planner fixture's store: one rare-target query over the dense
// hotspot and one frequent-target query over a sparse rectangle per op.
func BenchmarkFilterPlan(b *testing.B) {
	c, frequent, rare := plannerFixture(b, 1)
	w := c.Workers[0]
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	queries := []*wire.FilterQuery{
		{Rect: geo.RectOf(0, 0, 200, 200), Window: window, TargetID: targetIDOf(b, c, rare)},
		{Rect: geo.RectOf(800, 800, 850, 850), Window: window, TargetID: targetIDOf(b, c, frequent)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := w.onFilter(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestFilterNoPredicates degenerates to a plain range query.
func TestFilterNoPredicates(t *testing.T) {
	c, _, _ := plannerFixture(t, 2)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	rect := geo.RectOf(0, 0, 300, 300)
	filtered, _, err := c.Coordinator.Filter(ctx, wire.FilterQuery{Rect: rect, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Coordinator.Range(ctx, rect, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != len(plain) {
		t.Errorf("filter without predicates = %d records, range = %d", len(filtered), len(plain))
	}
}
