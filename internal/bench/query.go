package bench

import (
	"context"
	"math/rand"
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

// R2QueryLatency measures snapshot range and kNN latency as the camera
// network grows, distributed (8 workers, spatial routing) vs centralized.
// Expected shape: the distributed latency stays near-flat because routing
// touches only the workers whose cameras intersect the query, while the
// centralized store's latency grows with total data volume.
func R2QueryLatency(s Scale) *Table {
	t := &Table{
		ID:     "R2",
		Title:  "Query latency vs camera count (8 workers)",
		Notes:  "mean of 200-query mix; fixed per-camera observation density",
		Header: []string{"cameras", "records", "dist range", "dist knn", "central range", "central knn"},
	}
	ctx := context.Background()
	for _, side := range []int{8, 16, 24, 32} {
		// Density held constant: objects scale with camera count.
		objects := s.n(side * side / 2)
		wl := makeWorkload(side, objects, s.n(40), 2)

		c, err := core.NewLocalCluster(8, nil, core.Options{CellSize: 50})
		if err != nil {
			panic(err)
		}
		if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
			panic(err)
		}
		ingestAll(ctx, c, wl)

		central := newCentral(50)
		for _, b := range wl.batches {
			central.Ingest(b)
		}

		window := fullWindow(wl)
		rng := rand.New(rand.NewSource(3))
		queries := s.n(200)
		var distRange, distKNN, centRange, centKNN time.Duration
		for q := 0; q < queries; q++ {
			center := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
			rect := geo.RectAround(center, 100)
			st := time.Now()
			if _, err := c.Coordinator.Range(ctx, rect, window, 0); err != nil {
				panic(err)
			}
			distRange += time.Since(st)
			st = time.Now()
			if _, err := c.Coordinator.KNN(ctx, center, window, 10); err != nil {
				panic(err)
			}
			distKNN += time.Since(st)
			st = time.Now()
			central.Range(rect, window, 0)
			centRange += time.Since(st)
			st = time.Now()
			central.KNN(center, window, 10)
			centKNN += time.Since(st)
		}
		n := time.Duration(queries)
		t.AddRow(side*side, central.Stored(), distRange/n, distKNN/n, centRange/n, centKNN/n)
		c.Stop()
	}
	return t
}

func fullWindow(wl *workload) wire.TimeWindow {
	var lo, hi time.Time
	for _, b := range wl.batches {
		for _, d := range b {
			if lo.IsZero() || d.Time.Before(lo) {
				lo = d.Time
			}
			if d.Time.After(hi) {
				hi = d.Time
			}
		}
	}
	return wire.TimeWindow{From: lo, To: hi}
}

// R7Continuous measures per-batch ingest cost as the number of installed
// continuous queries grows. Expected shape: cost grows linearly in installed
// queries (each observation is checked against each standing predicate), with
// a small constant floor.
func R7Continuous(s Scale) *Table {
	t := &Table{
		ID:     "R7",
		Title:  "Continuous-query scalability",
		Notes:  "ingest cost per observation vs installed standing queries",
		Header: []string{"queries", "events", "ingest time", "ns/event", "updates emitted"},
	}
	ctx := context.Background()
	wl := makeWorkload(8, s.n(200), s.n(30), 6)
	// One throwaway pass absorbs first-run allocation noise so the zero-query
	// row is comparable with the rest.
	{
		warm, err := core.NewLocalCluster(4, nil, core.Options{CellSize: 50, LostAfter: time.Hour})
		if err != nil {
			panic(err)
		}
		if err := warm.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
			panic(err)
		}
		ingestAll(ctx, warm, wl)
		warm.Stop()
	}
	for _, nq := range []int{0, 8, 64, 256, 1024} {
		if nq > 0 {
			nq = s.n(nq)
		}
		c, err := core.NewLocalCluster(4, nil, core.Options{CellSize: 50, LostAfter: time.Hour})
		if err != nil {
			panic(err)
		}
		if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(7))
		chans := make([]<-chan wire.ContinuousUpdate, 0, nq)
		for q := 0; q < nq; q++ {
			center := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
			_, ch, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, geo.RectAround(center, 150), 0)
			if err != nil {
				panic(err)
			}
			chans = append(chans, ch)
		}
		accepted, dur := ingestAll(ctx, c, wl)
		updates := 0
		for _, ch := range chans {
			for {
				ok := false
				select {
				case _, ok = <-ch:
				default:
				}
				if !ok {
					break
				}
				updates++
			}
		}
		perEvent := float64(dur.Nanoseconds()) / float64(max(accepted, 1))
		t.AddRow(nq, accepted, dur, perEvent, updates)
		c.Stop()
	}
	return t
}

// R9Retention measures store footprint under different retention windows on
// an endless stream. Expected shape: records held plateau at
// rate × retention; unlimited retention grows linearly forever.
func R9Retention(s Scale) *Table {
	t := &Table{
		ID:     "R9",
		Title:  "Store footprint vs retention window",
		Notes:  "fixed-rate stream; plateau ≈ rate × retention",
		Header: []string{"retention", "stream events", "max records held", "final records", "evicted"},
	}
	ticks := s.n(600)
	for _, retention := range []time.Duration{0, 30 * time.Second, 2 * time.Minute, 10 * time.Minute} {
		store := stindex.NewStore(stindex.Config{CellSize: 50, BucketWidth: 5 * time.Second, Retention: retention})
		rng := rand.New(rand.NewSource(8))
		start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		maxHeld, total := 0, 0
		perTick := 20
		for i := 0; i < ticks; i++ {
			at := start.Add(time.Duration(i) * time.Second)
			for j := 0; j < perTick; j++ {
				total++
				store.Insert(stindex.Record{
					ObsID: uint64(total),
					Pos:   geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
					Time:  at,
				})
			}
			if store.Len() > maxHeld {
				maxHeld = store.Len()
			}
		}
		label := "unlimited"
		if retention > 0 {
			label = retention.String()
		}
		t.AddRow(label, total, maxHeld, store.Len(), total-store.Len())
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
