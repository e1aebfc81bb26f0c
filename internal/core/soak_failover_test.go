package core

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// soakFrames returns the simulated frame count for the failover soak: the
// default keeps `make soak-short` around half a minute under -race; the
// nightly long soak raises it via STCAM_SOAK_FRAMES.
func soakFrames() int {
	if v := os.Getenv("STCAM_SOAK_FRAMES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 300
}

// soakSeed returns the chaos seed, overridable via STCAM_SOAK_SEED so a
// failing nightly run can be replayed locally with the same fault schedule.
func soakSeed() int64 {
	if v := os.Getenv("STCAM_SOAK_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 42
}

// TestSoakFailoverLeaderKill is the control-plane chaos soak (experiment
// R19): a three-coordinator HA group with four workers on a seeded FaultyNet,
// with pipelined ingest (drops and duplicates on the ingest links), snapshot
// queries, and a live track all running concurrently while the leader is
// killed mid-run. Meant for `go test -race` (the `make soak-short` gate);
// skipped under -short.
//
// Assertions are the failover contract from the issue:
//   - a surviving standby takes over within two lease intervals;
//   - the tracked target is never permanently lost (the replicated registry
//     still knows it after the takeover);
//   - no observation is double-applied: a complete range answer holds no
//     duplicate ObsID despite transport duplicates and the failover;
//   - the pruned scatter path never over-reports completeness.
func TestSoakFailoverLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	lease := 250 * time.Millisecond
	policy := cluster.Policy{
		MaxAttempts:       4,
		PerAttemptTimeout: 500 * time.Millisecond,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        8 * time.Millisecond,
	}
	opts := Options{
		Replicas:         1,
		LostAfter:        2 * time.Second,
		RetryPolicy:      policy,
		LeaseInterval:    lease,
		HeartbeatTimeout: 3 * time.Second,
	}
	hc, err := NewHACluster(3, 4, nil, soakSeed(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hc.Stop)
	leader := hc.Coordinators[0]
	if err := leader.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	for _, w := range hc.Workers {
		w.StartHeartbeats(50 * time.Millisecond)
	}

	// Chaos on the ingest links only: the feed's view of every worker drops
	// and duplicates frames. The control plane's chaos is the leader kill.
	ingestView := hc.Net.View("ingest-feed")
	for _, w := range hc.Workers {
		ingestView.SetProgram(w.Addr(), cluster.FaultProgram{Drop: 0.05, Duplicate: 0.10})
	}

	world, err := sim.NewWorld(sim.Config{
		World:      world1,
		NumObjects: 15,
		Model:      &sim.RandomWaypoint{World: world1, MinSpeed: 30, MaxSpeed: 60},
		Seed:       13,
		FeatureDim: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{Seed: 14})
	// The ingester is bound to the original leader for routing. That is the
	// point: assignments are stability-first, so the routes stay valid across
	// the failover and the data plane never stops.
	ing := NewIngesterWith(leader, cluster.NewResilient(ingestView, policy), IngesterOptions{PipelineDepth: 4})
	defer ing.Close()

	var (
		generated  atomic.Int64
		killedAt   atomic.Int64 // unix nanos; 0 while the leader still lives
		done       = make(chan struct{})
		wg         sync.WaitGroup
		queries    atomic.Int64
		incomplete atomic.Int64
	)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(24 * time.Hour)}
	survivors := hc.Coordinators[1:]
	// currentCoord picks a live query/control target: the original leader
	// until the kill, then whichever survivor has taken over (falling back to
	// a degraded-read standby while the group is leaderless).
	currentCoord := func() *Coordinator {
		if killedAt.Load() == 0 {
			return leader
		}
		if c := leaderAmong(survivors); c != nil {
			return c
		}
		return survivors[len(survivors)-1]
	}

	// Ingest: the seeded simulation streamed through the pipeline, paced so
	// the run comfortably straddles the failover window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		world.Run(soakFrames(), leader.Network(), det, func(_ int, dets []vision.Detection) {
			generated.Add(int64(len(dets)))
			if _, err := ing.IngestDetections(ctx, dets); err != nil {
				t.Errorf("soak ingest: %v", err)
			}
			ing.Tick(ctx, world.Now())
			time.Sleep(3 * time.Millisecond)
		})
	}()

	// Queries: range + count against the best coordinator of the moment, with
	// the completeness contract asserted on every answer. While leaderless
	// these hit a standby's replicated state — availability through failover
	// is exactly what this measures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			qc := currentCoord()
			recs, meta, err := rangeDecoded(qc, world1, window, 0)
			if err != nil {
				t.Errorf("soak range: %v", err)
				return
			}
			queries.Add(1)
			if meta.Answered > meta.Asked {
				t.Errorf("range meta over-reports: answered %d > asked %d", meta.Answered, meta.Asked)
				return
			}
			if meta.Answered == meta.Asked {
				seen := make(map[uint64]bool, len(recs))
				for _, r := range recs {
					if seen[r.ObsID] {
						t.Errorf("complete range answer contains observation %d twice", r.ObsID)
						return
					}
					seen[r.ObsID] = true
				}
				if gen := generated.Load(); int64(len(recs)) > gen {
					t.Errorf("complete range answer has %d records, only %d generated", len(recs), gen)
					return
				}
			} else {
				incomplete.Add(1)
			}
			n, cmeta, err := qc.CountMeta(ctx, world1, window)
			if err != nil {
				t.Errorf("soak count: %v", err)
				return
			}
			queries.Add(1)
			if cmeta.Answered > cmeta.Asked {
				t.Errorf("count meta over-reports: answered %d > asked %d", cmeta.Answered, cmeta.Asked)
				return
			}
			if cmeta.Answered == cmeta.Asked && int64(n) > generated.Load() {
				t.Errorf("complete count %d exceeds %d generated observations", n, generated.Load())
				return
			}
		}
	}()

	// Tracking: a live track started on the original leader; its updates and
	// the loss/prime machinery keep running against whichever coordinator
	// leads. The channel belongs to the original leader and closes when it
	// dies — the track itself must survive in the replicated registry.
	feat := make([]float32, 32)
	feat[0] = 1
	trackID, trackCh, err := leader.StartTrack(ctx, 1, feat, simT0)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ch := trackCh
		for {
			select {
			case <-done:
				return
			case _, ok := <-ch:
				if !ok {
					ch = nil // old leader died; wait out the run
				}
				if ch == nil {
					<-done
					return
				}
			}
		}
	}()

	// Sweeps: orphan recovery and liveness on the survivors throughout (a
	// standby's Sweep is a no-op until it is promoted).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				for _, c := range survivors {
					c.Sweep(ctx, time.Now())
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
	}()

	// The kill: a third of the way in, the leader dies outright. A survivor
	// must take over within two lease intervals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Duration(soakFrames()) / 3 * 3 * time.Millisecond)
		t0 := time.Now()
		killedAt.Store(t0.UnixNano())
		leader.Stop()
		deadline := t0.Add(2 * lease)
		for leaderAmong(survivors) == nil {
			if time.Now().After(deadline) {
				t.Errorf("no survivor took over within two lease intervals (%v)", 2*lease)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Logf("failover completed in %v (budget %v)", time.Since(t0), 2*lease)
	}()

	wg.Wait()
	if generated.Load() == 0 {
		t.Fatal("soak generated no observations; workload is vacuous")
	}
	newLeader := leaderAmong(survivors)
	if newLeader == nil {
		t.Fatal("no leader among survivors at soak end")
	}
	if n := len(survivors) - 1; leaderAmong(survivors[1:]) != nil && newLeader != survivors[0] {
		t.Fatalf("more than one of the %d survivors claims leadership", n+1)
	}

	// Zero tracks permanently lost: the replicated registry on the new leader
	// still knows the track, and its owner is a live worker.
	waitFor(t, 2*time.Second, "track owner alive on new leader", func() bool {
		owner, _, _, ok := newLeader.TrackInfo(trackID)
		if !ok {
			return false
		}
		for _, m := range newLeader.membership.Alive() {
			if m.Node == owner {
				return true
			}
		}
		return false
	})

	// All workers re-homed to the new leader.
	waitFor(t, 2*time.Second, "all workers live on new leader", func() bool {
		return len(newLeader.membership.Alive()) == len(hc.Workers)
	})

	// Settle: quiet the ingest links, flush, then one final complete answer —
	// no duplicates, nothing double-applied, count bounded by generation.
	for _, w := range hc.Workers {
		ingestView.SetProgram(w.Addr(), cluster.FaultProgram{})
	}
	if _, err := ing.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var recs []wire.ResultRecord
	var meta QueryMeta
	waitFor(t, 5*time.Second, "final complete range answer", func() bool {
		recs, meta, err = rangeDecoded(newLeader, world1, window, 0)
		return err == nil && meta.Answered == meta.Asked
	})
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Fatalf("final range answer contains observation %d twice", r.ObsID)
		}
		seen[r.ObsID] = true
	}
	if int64(len(recs)) > generated.Load() {
		t.Fatalf("final range answer has %d records, only %d generated", len(recs), generated.Load())
	}
	if err := newLeader.StopTrack(ctx, trackID); err != nil {
		t.Fatalf("stop track on new leader: %v", err)
	}

	// The R19 numbers: failover time is in the log above; these counters are
	// the exported failover telemetry.
	snap := newLeader.StatsSnapshot()
	if snap.Counters["failover.total"] < 1 {
		t.Fatalf("failover.total = %d on the promoted leader, want >= 1", snap.Counters["failover.total"])
	}
	if snap.Counters["leaderless.seconds"] < 1 {
		t.Fatalf("leaderless.seconds = %d on the promoted leader, want >= 1", snap.Counters["leaderless.seconds"])
	}
	var shed, drained, queued int64
	for _, w := range hc.Workers {
		shed += w.Metrics().Counter("handoff.queue_shed").Value()
		drained += w.Metrics().Counter("handoff.queue_drained").Value()
		queued += w.Metrics().Counter("push.errors").Value()
	}
	stats := hc.Net.InjectedTotal()
	t.Logf("R19: generated=%d stored=%d queries=%d incomplete=%d leaderless_s=%d pushes_deferred=%d drained=%d shed=%d faults={drop:%d dup:%d}",
		generated.Load(), len(recs), queries.Load(), incomplete.Load(),
		snap.Counters["leaderless.seconds"], queued, drained, shed,
		stats.Dropped, stats.Duplicated)
}
