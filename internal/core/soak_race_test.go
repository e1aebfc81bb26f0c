package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestSoakIngestQueriesTrackingRebalance is the end-to-end race soak: a
// replicated cluster over a Faulty transport with seeded drops and
// duplicates, with pipelined ingest, snapshot queries, a live track, and a
// mid-run rebalance (a worker joining) all running concurrently. Meant for
// `go test -race`; skipped under -short so quick local runs stay quick.
//
// The assertions are the completeness contract: scatter metadata never
// over-reports (Answered ≤ Asked), a complete range answer contains no
// duplicate observation — transport duplicates and at-least-once retries
// must be deduplicated by sequenced delivery — and complete counts never
// exceed the number of observations actually generated.
func TestSoakIngestQueriesTrackingRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	policy := cluster.Policy{
		MaxAttempts:       5,
		PerAttemptTimeout: 2 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        8 * time.Millisecond,
	}
	opts := Options{Replicas: 1, LostAfter: 2 * time.Second, RetryPolicy: policy}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 42)
	cl, err := NewLocalClusterOver(faulty, 4, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	if err := cl.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	// Seeded faults on every worker link: lost deliveries (retried by the
	// resilience layer) and duplicated ones (deduplicated by sequencing).
	for _, w := range cl.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{Drop: 0.05, Duplicate: 0.10})
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
	ing := NewIngesterWith(cl.Coordinator, cluster.NewResilient(faulty, policy), IngesterOptions{PipelineDepth: 4})
	defer ing.Close()

	var (
		generated atomic.Int64
		done      = make(chan struct{})
		wg        sync.WaitGroup
	)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(24 * time.Hour)}

	// Ingest: the seeded simulation streamed through the pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		world.Run(150, cl.Coordinator.Network(), det, func(_ int, dets []vision.Detection) {
			generated.Add(int64(len(dets)))
			if _, err := ing.IngestDetections(ctx, dets); err != nil {
				t.Errorf("soak ingest: %v", err)
			}
			ing.Tick(ctx, world.Now())
		})
	}()

	// Queries: range + count with completeness assertions, all soak long.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			recs, meta, err := rangeDecoded(cl.Coordinator, world1, window, 0)
			if err != nil {
				t.Errorf("soak range: %v", err)
				return
			}
			if meta.Answered > meta.Asked {
				t.Errorf("range meta over-reports: answered %d > asked %d", meta.Answered, meta.Asked)
				return
			}
			gen := generated.Load()
			if meta.Answered == meta.Asked {
				seen := make(map[uint64]bool, len(recs))
				for _, r := range recs {
					if seen[r.ObsID] {
						t.Errorf("complete range answer contains observation %d twice", r.ObsID)
						return
					}
					seen[r.ObsID] = true
				}
				if int64(len(recs)) > gen {
					t.Errorf("complete range answer has %d records, only %d observations generated", len(recs), gen)
					return
				}
			}
			n, cmeta, err := cl.Coordinator.CountMeta(ctx, world1, window)
			if err != nil {
				t.Errorf("soak count: %v", err)
				return
			}
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

	// Tracking: a live track plus the loss/prime handoff machinery running
	// against the ingest stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		feat := make([]float32, 32)
		feat[0] = 1
		id, ch, err := cl.Coordinator.StartTrack(ctx, 1, feat, simT0)
		if err != nil {
			t.Errorf("soak track start: %v", err)
			return
		}
		for {
			select {
			case <-done:
				if err := cl.Coordinator.StopTrack(ctx, id); err != nil {
					t.Errorf("soak track stop: %v", err)
				}
				return
			case <-ch:
			}
		}
	}()

	// Mid-run rebalance: a fifth worker joins and the partition is pushed
	// again while ingest and queries are in flight. The worker is handed
	// back to the test body and stopped only after every concurrent caller
	// and the final completeness check are done — it may own replicas by
	// then, and stopping it mid-call is a different test's business.
	w5ch := make(chan *Worker, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		w5 := NewWorker("w05", "worker-05", "coord", faulty, opts)
		if err := w5.Start(ctx); err != nil {
			t.Errorf("soak join: %v", err)
			w5ch <- nil
			return
		}
		w5ch <- w5
		faulty.SetProgram(w5.Addr(), cluster.FaultProgram{Drop: 0.05, Duplicate: 0.10})
		if err := cl.Coordinator.Reassign(ctx); err != nil {
			t.Errorf("soak reassign: %v", err)
		}
	}()
	if w5 := <-w5ch; w5 != nil {
		defer w5.Stop()
	}

	wg.Wait()
	if generated.Load() == 0 {
		t.Fatal("soak generated no observations; workload is vacuous")
	}

	// Settle, then one final complete check: the answer must be complete
	// now (no faults beyond drops/dups, all retried) and still free of
	// duplicates.
	recs, meta, err := rangeDecoded(cl.Coordinator, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Answered != meta.Asked {
		t.Fatalf("final range incomplete: answered %d of %d", meta.Answered, meta.Asked)
	}
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
}
