package core

import (
	"testing"
	"time"

	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestReidSearchDuringIngest runs re-id searches against a worker while
// another goroutine ingests sightings of the probed identity into it. Under
// -race it fails if the search reads any ingest state without that state's
// lock.
func TestReidSearchDuringIngest(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	addr, ok := c.Coordinator.RouteFor(1)
	if !ok {
		t.Fatal("no route for camera 1")
	}
	rng := newRand(5)
	probe := vision.NewRandomFeature(rng, 32)
	const n = 200
	batches := make([]*wire.IngestBatch, n)
	for i := range batches {
		o := obsAt(uint64(i+1), 1, geo.Pt(250, 250), simT0.Add(time.Duration(i)*time.Second), probe.Perturb(rng, 0.05))
		batches[i] = &wire.IngestBatch{Camera: 1, Observations: []wire.Observation{o}}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range batches {
			if _, err := c.Transport.Call(ctx, addr, b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	w := c.Workers[0]
	for i := 0; i < n; i++ {
		for _, h := range w.ReidSearch(probe, window, 0.8) {
			if h.ObsID < 1 || h.ObsID > n {
				t.Fatalf("search returned unknown observation %+v", h)
			}
		}
	}
	<-done
	hits := w.ReidSearch(probe, window, 0.8)
	if len(hits) != n {
		t.Fatalf("after ingest, search found %d sightings, want %d", len(hits), n)
	}
	for i, h := range hits {
		if h.ObsID != uint64(i+1) {
			t.Fatalf("hit %d is observation %d, want %d (time order)", i, h.ObsID, i+1)
		}
	}
}

// TestReidSearchCoversRetention ingests one sighting of the probed identity,
// then more than 100 000 sightings of 50 other identities, all inside the
// retention window. The search must still find the first sighting: its reach
// is retention, not a count of recent observations.
func TestReidSearchCoversRetention(t *testing.T) {
	c := newTestCluster(t, 1, Options{Retention: 10 * time.Minute})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	rng := newRand(17)
	probe := vision.NewRandomFeature(rng, 32)
	ingestDirect(t, c, obsAt(1, 1, geo.Pt(250, 250), simT0, probe))
	// The others' sightings cycle through a fixed set of perturbed views, so
	// the gallery stays at 50 identities.
	var views []vision.Feature
	for i := 0; i < 50; i++ {
		base := vision.NewRandomFeature(rng, 32)
		for j := 0; j < 8; j++ {
			views = append(views, base.Perturb(rng, 0.02))
		}
	}
	const others, batch = 100_500, 500
	at := simT0
	for lo := 0; lo < others; lo += batch {
		obs := make([]wire.Observation, batch)
		for i := range obs {
			at = at.Add(time.Millisecond)
			obs[i] = obsAt(uint64(2+lo+i), 1, geo.Pt(250, 250), at, views[(lo+i)%len(views)])
		}
		ingestDirect(t, c, obs...)
	}
	window := wire.TimeWindow{From: simT0, To: at}
	hits := c.Workers[0].ReidSearch(probe, window, 0.8)
	if len(hits) != 1 || hits[0].ObsID != 1 {
		t.Fatalf("search found %+v, want the first sighting only", hits)
	}
	if hits[0].TargetID == 0 {
		t.Error("hit carries no target ID")
	}
}

// TestReidSearchQuality drives a seeded simulation through a 4-worker
// cluster at R4's feature-noise levels, in a 16-d and R4's 64-d embedding,
// and scores ReidSearch against the simulator's ground truth. Each object's
// first sighting is the probe; the relevant set is every sighting of that
// object. Precision and recall are micro-averaged over objects and logged per
// seed. Floors apply at σ ≤ 0.2. In 64-d at σ = 0.2 two noisy sightings of one
// object have an expected cosine near 0.28, below both the association and
// the search threshold, so only the probe itself is found there and only
// precision has a floor.
func TestReidSearchQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	type floor struct{ precision, recall float64 }
	floors := map[[2]float64]floor{
		{16, 0.05}: {0.99, 0.95},
		{16, 0.2}:  {0.95, 0.15},
		{64, 0.05}: {0.99, 0.95},
		{64, 0.2}:  {0.95, 0},
	}
	for _, dim := range []int{16, 64} {
		for _, sigma := range []float64{0.05, 0.2, 0.5, 1.0} {
			for seed := int64(1); seed <= 3; seed++ {
				p, r := reidQuality(t, dim, sigma, seed)
				t.Logf("dim=%d σ=%.2f seed=%d precision=%.3f recall=%.3f", dim, sigma, seed, p, r)
				if f, ok := floors[[2]float64{float64(dim), sigma}]; ok && (p < f.precision || r < f.recall) {
					t.Errorf("dim=%d σ=%.2f seed=%d: precision %.3f recall %.3f, want ≥ %.2f and ≥ %.2f",
						dim, sigma, seed, p, r, f.precision, f.recall)
				}
			}
		}
	}
}

func reidQuality(t *testing.T, dim int, sigma float64, seed int64) (precision, recall float64) {
	t.Helper()
	c := newTestCluster(t, 4, Options{LostAfter: time.Hour})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(sim.Config{
		World:      world1,
		NumObjects: 20,
		Model:      &sim.RandomWaypoint{World: world1, MinSpeed: 30, MaxSpeed: 60},
		Seed:       seed,
		FeatureDim: dim,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{FeatureNoise: sigma, FeatureDim: dim, Seed: seed + 100})
	ing := NewIngester(c.Coordinator, c.Transport)
	defer ing.Close()
	truth := map[uint64]uint64{} // ObsID → TrueID
	relevant := map[uint64]int{} // TrueID → sightings
	probes := map[uint64]vision.Feature{}
	w.Run(40, c.Coordinator.Network(), det, func(_ int, dets []vision.Detection) {
		if _, err := ing.IngestDetections(ctx, dets); err != nil {
			t.Fatal(err)
		}
		for _, d := range dets {
			truth[d.ObsID] = d.TrueID
			relevant[d.TrueID]++
			if probes[d.TrueID] == nil {
				probes[d.TrueID] = d.Feature
			}
		}
	})
	window := wire.TimeWindow{From: simT0, To: w.Now()}
	var hits, correct, want int
	for id, probe := range probes {
		seen := map[uint64]bool{}
		for _, wk := range c.Workers {
			for _, h := range wk.ReidSearch(probe, window, 0.8) {
				if seen[h.ObsID] {
					t.Fatalf("observation %d returned twice", h.ObsID)
				}
				seen[h.ObsID] = true
				hits++
				if truth[h.ObsID] == id {
					correct++
				}
			}
		}
		want += relevant[id]
	}
	if hits == 0 {
		return 1, 0
	}
	return float64(correct) / float64(hits), float64(correct) / float64(want)
}
