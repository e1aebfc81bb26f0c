package bench

import (
	"context"
	"math/rand"
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// R13Planner ablates the adaptive multi-predicate query planner: a mixed
// workload of target-constrained range queries runs three times — forced
// spatial plan, forced target plan, adaptive — on the same skewed store.
// Expected shape: each forced plan wins on the queries it suits and loses
// badly on the others; the adaptive planner tracks the per-query minimum, so
// its total is close to the best of both and far from the worst.
func R13Planner(s Scale) *Table {
	t := &Table{
		ID:     "R13",
		Title:  "Adaptive query planner ablation",
		Notes:  "mixed rare/frequent-target queries over a hotspot store; total execution time",
		Header: []string{"strategy", "queries", "records", "total time", "vs adaptive"},
	}
	ctx := context.Background()
	c, err := core.NewLocalCluster(1, nil, core.Options{CellSize: 50, LostAfter: time.Hour, AssocThreshold: 0.7})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	world := geo.RectOf(0, 0, 1000, 1000)
	cams := omniGrid(world, 2)
	if err := c.Coordinator.AddCameras(ctx, cams, 100); err != nil {
		panic(err)
	}

	// Skewed store: a handful of "frequent" identities with long histories
	// spread everywhere, many "rare" identities with a few sightings each,
	// and a dense anonymous hotspot.
	rng := rand.New(rand.NewSource(41))
	net := wireToNetwork(cams)
	net.BuildIndex(0)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var obs []wire.Observation
	id := uint64(1)
	add := func(p geo.Point, at time.Duration, f vision.Feature) {
		covering := net.CamerasCovering(p)
		if len(covering) == 0 {
			return
		}
		obs = append(obs, wire.Observation{
			ObsID: id, Camera: uint32(covering[0]), Time: start.Add(at), Pos: p, Feature: f,
		})
		id++
	}
	nFrequent := 4
	frequents := make([]vision.Feature, nFrequent)
	for i := range frequents {
		frequents[i] = vision.NewRandomFeature(rng, 64)
		for j := 0; j < s.n(2000); j++ {
			add(geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
				time.Duration(j)*100*time.Millisecond, frequents[i].Perturb(rng, 0.02))
		}
	}
	nRare := 20
	rares := make([]vision.Feature, nRare)
	for i := range rares {
		rares[i] = vision.NewRandomFeature(rng, 64)
		for j := 0; j < 3; j++ {
			add(geo.Pt(rng.Float64()*200, rng.Float64()*200),
				time.Duration(j)*time.Second, rares[i].Perturb(rng, 0.02))
		}
	}
	for j := 0; j < s.n(20000); j++ {
		add(geo.Pt(rng.Float64()*250, rng.Float64()*250), time.Duration(j)*50*time.Millisecond, nil)
	}
	// Deliver directly to the single worker.
	for lo := 0; lo < len(obs); lo += 500 {
		hi := lo + 500
		if hi > len(obs) {
			hi = len(obs)
		}
		byCam := map[uint32][]wire.Observation{}
		for _, o := range obs[lo:hi] {
			byCam[o.Camera] = append(byCam[o.Camera], o)
		}
		for cam, batch := range byCam {
			addr, ok := c.Coordinator.RouteFor(cam)
			if !ok {
				continue
			}
			if _, err := c.Transport.Call(ctx, addr, &wire.IngestBatch{Camera: cam, Observations: batch}); err != nil {
				panic(err)
			}
		}
	}

	window := wire.TimeWindow{From: start, To: start.Add(24 * time.Hour)}
	// Resolve target IDs via re-id search.
	resolve := func(f vision.Feature) uint64 {
		for _, w := range c.Workers {
			if hits := w.ReidSearch(f, window, 0.85); len(hits) > 0 {
				return hits[0].TargetID
			}
		}
		return 0
	}
	var freqIDs, rareIDs []uint64
	for _, f := range frequents {
		if tid := resolve(f); tid != 0 {
			freqIDs = append(freqIDs, tid)
		}
	}
	for _, f := range rares {
		if tid := resolve(f); tid != 0 {
			rareIDs = append(rareIDs, tid)
		}
	}

	// Mixed query workload: rare targets over the dense hotspot (target plan
	// should win) interleaved with frequent targets over small sparse
	// rectangles (spatial plan should win).
	type q struct{ fq wire.FilterQuery }
	var queries []q
	qrng := rand.New(rand.NewSource(42))
	reps := s.n(50)
	for i := 0; i < reps; i++ {
		queries = append(queries, q{wire.FilterQuery{
			Rect:     geo.RectOf(0, 0, 250, 250),
			Window:   window,
			TargetID: rareIDs[qrng.Intn(len(rareIDs))],
		}})
		x := 300 + qrng.Float64()*600
		y := 300 + qrng.Float64()*600
		queries = append(queries, q{wire.FilterQuery{
			Rect:     geo.RectAround(geo.Pt(x, y), 40),
			Window:   window,
			TargetID: freqIDs[qrng.Intn(len(freqIDs))],
		}})
	}
	run := func(force string) (time.Duration, int) {
		startT := time.Now()
		records := 0
		for _, qq := range queries {
			fq := qq.fq
			fq.ForcePlan = force
			recs, _, err := c.Coordinator.Filter(ctx, fq)
			if err != nil {
				panic(err)
			}
			records += len(recs)
		}
		return time.Since(startT), records
	}
	// Warm-up pass to stabilize caches, then measure.
	run("")
	adaptiveDur, adaptiveRecs := run("")
	spatialDur, spatialRecs := run("spatial")
	targetDur, targetRecs := run("target")
	if spatialRecs != adaptiveRecs || targetRecs != adaptiveRecs {
		panic("planner ablation: plans disagree on results")
	}
	rel := func(d time.Duration) string {
		return formatFloat(float64(d)/float64(adaptiveDur)) + "x"
	}
	t.AddRow("forced-spatial", len(queries), spatialRecs, spatialDur.Round(time.Microsecond), rel(spatialDur))
	t.AddRow("forced-target", len(queries), targetRecs, targetDur.Round(time.Microsecond), rel(targetDur))
	t.AddRow("adaptive", len(queries), adaptiveRecs, adaptiveDur.Round(time.Microsecond), "1.00x")
	return t
}
