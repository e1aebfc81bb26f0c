package bench

import (
	"context"
	"fmt"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// R5Balance measures load imbalance (max/mean ingest events per worker)
// under a hotspot mobility pattern, for each partitioning strategy. Expected
// shape: spatial partitioning concentrates the hotspot on few workers (high
// imbalance) while hash partitioning spreads it (near 1.0); round-robin sits
// in between depending on camera ID layout.
func R5Balance(s Scale) *Table {
	t := &Table{
		ID:     "R5",
		Title:  "Load balance under hotspot skew (8 workers)",
		Notes:  "80% of waypoints in 4% of the area; imbalance = max/mean worker load",
		Header: []string{"partitioner", "events", "min", "max", "mean", "imbalance"},
	}
	ctx := context.Background()
	world := geo.RectOf(0, 0, 2000, 2000)
	cams := omniGrid(world, 16)
	hot := geo.RectOf(0, 0, 400, 400)

	// Pre-generate the skewed workload once.
	net := wireToNetwork(cams)
	net.BuildIndex(0)
	det := vision.NewDetector(vision.DetectorConfig{PosNoise: 1, FeatureDim: 16, Seed: 15})
	w, err := sim.NewWorld(sim.Config{
		World:      world,
		NumObjects: s.n(300),
		Model: &sim.RandomWaypoint{
			World: world, MinSpeed: 10, MaxSpeed: 30,
			Hotspot: hot, HotspotProb: 0.8,
		},
		Seed:       15,
		FeatureDim: 16,
	})
	if err != nil {
		panic(err)
	}
	wl := &workload{world: world, cams: cams}
	w.Run(s.n(120), net, det, func(_ int, obs []vision.Detection) {
		wl.batches = append(wl.batches, obs)
	})

	for _, p := range []cluster.Partitioner{
		&cluster.SpatialPartitioner{},
		&cluster.HashPartitioner{},
		&cluster.RoundRobinPartitioner{},
	} {
		c, err := core.NewLocalCluster(8, p, core.Options{CellSize: 50})
		if err != nil {
			panic(err)
		}
		if err := c.Coordinator.AddCameras(ctx, cams, 150); err != nil {
			panic(err)
		}
		ingestAll(ctx, c, wl)
		stats := c.Coordinator.WorkerStats(ctx)
		var minL, maxL, sum int64
		minL = -1
		for _, st := range stats {
			v := st.Counters["ingest.accepted"]
			if minL < 0 || v < minL {
				minL = v
			}
			if v > maxL {
				maxL = v
			}
			sum += v
		}
		mean := float64(sum) / float64(len(stats))
		imb := 0.0
		if mean > 0 {
			imb = float64(maxL) / mean
		}
		t.AddRow(p.Name(), sum, minL, maxL, mean, fmt.Sprintf("%.2f", imb))
		c.Stop()
	}
	return t
}

// R8Failover measures what a worker crash costs: detection+recovery wall
// time, the answer completeness dip right after the crash, and recovery of
// ingest for the reassigned cameras — with and without stream replication.
// Expected shape: unreplicated, completeness drops by the dead worker's data
// share and returns to 1.0 only for post-recovery data; with one replica,
// standby promotion keeps history completeness at 1.0. Recovery time is
// dominated by the heartbeat timeout in both modes.
func R8Failover(s Scale) *Table {
	t := &Table{
		ID:     "R8",
		Title:  "Worker failure recovery (8 workers)",
		Notes:  "one worker killed mid-stream; heartbeat timeout 100ms",
		Header: []string{"replicas", "phase", "records visible", "completeness", "recovery (wall)"},
	}
	for _, replicas := range []int{0, 1} {
		r8Scenario(s, t, replicas)
	}
	return t
}

func r8Scenario(s Scale, t *Table, replicas int) {
	ctx := context.Background()
	opts := core.Options{CellSize: 50, HeartbeatTimeout: 100 * time.Millisecond, Replicas: replicas}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 1)
	c, err := core.NewLocalClusterOver(faulty, 8, nil, opts)
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	wl := makeWorkload(16, s.n(300), s.n(40), 16)
	if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
		panic(err)
	}
	total := ingestReplicated(ctx, c, wl)
	window := fullWindow(wl)
	pre, err := c.Coordinator.Range(ctx, wl.world, window, 0)
	if err != nil {
		panic(err)
	}
	t.AddRow(replicas, "before crash", len(pre), fmt.Sprintf("%.3f", float64(len(pre))/float64(total)), "-")

	// Everyone is healthy at crash time: heartbeat all workers so the
	// detection delay measured below reflects the failure timeout, not stale
	// registration timestamps.
	for _, w := range c.Workers {
		if err := w.SendHeartbeat(ctx); err != nil {
			panic(err)
		}
	}

	// Kill the busiest worker.
	stats := c.Coordinator.WorkerStats(ctx)
	var victim wire.NodeID
	var most int64 = -1
	for _, st := range stats {
		if v := st.Counters["ingest.accepted"]; v > most {
			most, victim = v, st.Node
		}
	}
	dead := c.Worker(victim)
	faulty.SetPartitioned(dead.Addr(), true)
	crashAt := time.Now()

	// Survivors heartbeat until the sweep detects the death. Each sweep
	// judges liveness as of an instant read before the survivors' heartbeats,
	// so a stalled host can delay the victim's detection but never declares
	// a survivor dead: the completeness columns do not depend on timing.
	var recovery time.Duration
	for {
		now := time.Now()
		for _, w := range c.Workers {
			if w.ID() != victim {
				w.SendHeartbeat(ctx) //nolint:errcheck // best-effort during failover
			}
		}
		if died := c.Coordinator.Sweep(ctx, now); len(died) > 0 {
			recovery = time.Since(crashAt)
			break
		}
		if time.Since(crashAt) > 10*time.Second {
			panic("failover: death never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	post, _ := c.Coordinator.Range(ctx, wl.world, window, 0)
	t.AddRow(replicas, "after crash", len(post), fmt.Sprintf("%.3f", float64(len(post))/float64(total)), recovery.Round(time.Millisecond))

	// New data on the reassigned cameras is fully visible again. The second
	// stream is shifted one hour into the future so its query window is
	// disjoint from the pre-crash data.
	wl2 := makeWorkload(16, s.n(300), s.n(10), 17)
	for _, b := range wl2.batches {
		for i := range b {
			b[i].Time = b[i].Time.Add(time.Hour)
		}
	}
	total2 := ingestReplicated(ctx, c, wl2)
	post2, _ := c.Coordinator.Range(ctx, wl2.world, fullWindow(wl2), 0)
	comp2 := float64(len(post2)) / float64(max(total2, 1))
	t.AddRow(replicas, "post-recovery stream", len(post2), fmt.Sprintf("%.3f", comp2), "-")
}

// ingestReplicated streams a workload through the replica-aware Ingester one
// frame at a time (R8 measures recovery, not throughput), returning
// primary-accepted count.
func ingestReplicated(ctx context.Context, c *core.Cluster, wl *workload) int {
	ing := core.NewIngester(c.Coordinator, c.Transport)
	defer ing.Close()
	total := 0
	for _, b := range wl.batches {
		n, _ := ing.IngestDetections(ctx, b)
		total += n
	}
	return total
}

// R10Crossover finds where distribution starts paying: total workload time
// (ingest + queries) on a centralized server vs distributed clusters of
// increasing size, across deployment scales, with per-message transport
// latency modeled. Expected shape: at small camera counts the centralized
// server wins (no fan-out overhead); past the crossover the distributed
// system wins and the gap grows with scale.
func R10Crossover(s Scale) *Table {
	t := &Table{
		ID:     "R10",
		Title:  "Centralized vs distributed crossover",
		Notes:  "workload = full ingest + 50 range queries; 200µs simulated one-way RPC latency",
		Header: []string{"cameras", "events", "central", "dist-2w", "dist-8w", "winner"},
	}
	for _, side := range []int{2, 4, 8, 16} {
		wl := makeWorkload(side, s.n(side*side*3), s.n(30), 18)
		window := fullWindow(wl)

		// Central: direct calls, no network.
		central := newCentral(50)
		startC := time.Now()
		for _, b := range wl.batches {
			central.Ingest(b)
		}
		qrng := newQueryRects(wl.world, s.n(50))
		for _, r := range qrng {
			central.Range(r, window, 0)
		}
		centralDur := time.Since(startC)

		durFor := func(workers int) time.Duration {
			tr := withLatency(200*time.Microsecond, workers)
			coord := core.NewCoordinator("coord", tr, nil, core.Options{CellSize: 50})
			if err := coord.Start(); err != nil {
				panic(err)
			}
			c := &core.Cluster{Coordinator: coord, Transport: tr}
			ctx := context.Background()
			for i := 0; i < workers; i++ {
				w := core.NewWorker(wire.NodeID(fmt.Sprintf("w%02d", i+1)), fmt.Sprintf("worker-%02d", i+1), "coord", tr, core.Options{CellSize: 50})
				if err := w.Start(ctx); err != nil {
					panic(err)
				}
				c.Workers = append(c.Workers, w)
			}
			defer c.Stop()
			if err := coord.AddCameras(ctx, wl.cams, 100); err != nil {
				panic(err)
			}
			start := time.Now()
			ingestAll(ctx, c, wl)
			for _, r := range qrng {
				if _, err := coord.Range(ctx, r, window, 0); err != nil {
					panic(err)
				}
			}
			return time.Since(start)
		}
		d2 := durFor(2)
		d8 := durFor(8)
		winner := "central"
		switch {
		case d8 < centralDur && d8 <= d2:
			winner = "dist-8w"
		case d2 < centralDur:
			winner = "dist-2w"
		}
		t.AddRow(side*side, wl.totalObs(), centralDur.Round(time.Millisecond), d2.Round(time.Millisecond), d8.Round(time.Millisecond), winner)
	}
	return t
}

// withLatency returns an in-process transport on which every call to the
// coordinator ("coord") or to one of the workers worker-01 … worker-NN waits
// oneWay out and oneWay back: one injected delay of 2·oneWay per call.
func withLatency(oneWay time.Duration, workers int) *cluster.Faulty {
	f := cluster.NewFaulty(cluster.NewInProc(), 1)
	p := cluster.FaultProgram{Latency: 2 * oneWay}
	f.SetProgram("coord", p)
	for i := 1; i <= workers; i++ {
		f.SetProgram(fmt.Sprintf("worker-%02d", i), p)
	}
	return f
}

func newQueryRects(world geo.Rect, n int) []geo.Rect {
	out := make([]geo.Rect, n)
	// Deterministic tiling of query rectangles across the world.
	for i := range out {
		fx := float64(i%10) / 10
		fy := float64(i/10%10) / 10
		c := geo.Pt(world.Min.X+fx*world.Width(), world.Min.Y+fy*world.Height())
		out[i] = geo.RectAround(c, 100)
	}
	return out
}
