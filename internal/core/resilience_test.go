package core

import (
	"errors"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// seedFaultCluster assembles a cluster over a Faulty(InProc) transport and
// loads one observation per camera of a 3×3 grid, returning the cluster and
// the fault injector. Faults are programmed by the caller afterwards, so
// setup traffic is never subject to them.
func seedFaultCluster(t *testing.T, opts Options) (*Cluster, *cluster.Faulty) {
	t.Helper()
	faulty := cluster.NewFaulty(cluster.NewInProc(), 11)
	c, err := NewLocalClusterOver(faulty, 3, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	var obs []wire.Observation
	for cam := uint32(1); cam <= 9; cam++ {
		ci := gridCams(world1, 3)[cam-1]
		obs = append(obs, obsAt(uint64(cam), cam, ci.Pos, simT0.Add(time.Duration(cam)*time.Second), nil))
	}
	if got := ingestDirect(t, c, obs...); got != 9 {
		t.Fatalf("ingested %d, want 9", got)
	}
	return c, faulty
}

// TestResilienceMasksDroppedCalls is the headline fault-injection test: one
// worker's link drops 30% of calls, and the retry layer still delivers every
// query answer complete.
func TestResilienceMasksDroppedCalls(t *testing.T) {
	c, faulty := seedFaultCluster(t, Options{
		CallTimeout: 50 * time.Millisecond,
		RetryPolicy: cluster.Policy{
			MaxAttempts:      5,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       5 * time.Millisecond,
			FailureThreshold: -1, // isolate the retry mechanism
		},
	})
	faulty.SetProgram(c.Workers[0].Addr(), cluster.FaultProgram{Drop: 0.3})

	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	for i := 0; i < 20; i++ {
		recs, meta, err := rangeDecoded(c.Coordinator, world1, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Completeness() != 1.0 {
			t.Fatalf("query %d completeness = %.2f (answered %d/%d), want 1.0",
				i, meta.Completeness(), meta.Answered, meta.Asked)
		}
		if len(recs) != 9 {
			t.Fatalf("query %d returned %d records, want 9", i, len(recs))
		}
	}
	if faulty.Injected().Dropped == 0 {
		t.Fatal("fault program never fired; the test exercised nothing")
	}
	if c.Coordinator.rpc.Stats().Retries == 0 {
		t.Fatal("no retries recorded; drops were not masked by the resilience layer")
	}
	if v := c.Coordinator.Metrics().Counter("scatter.partial").Value(); v != 0 {
		t.Errorf("scatter.partial = %d, want 0", v)
	}
}

// TestBreakerFastFailsPartitionedWorker: a worker whose link hangs every call
// opens its circuit breaker, after which queries return fast and report a
// partial answer instead of stalling for the full retry schedule.
func TestBreakerFastFailsPartitionedWorker(t *testing.T) {
	perAttempt := 40 * time.Millisecond
	c, faulty := seedFaultCluster(t, Options{
		CallTimeout: perAttempt,
		RetryPolicy: cluster.Policy{
			MaxAttempts:      2,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       time.Millisecond,
			FailureThreshold: 2,
			Cooldown:         10 * time.Second, // stays open for the whole test
		},
	})
	hungAddr := c.Workers[0].Addr()
	faulty.SetProgram(hungAddr, cluster.FaultProgram{Hang: 1})

	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	// First query eats the timeouts: both attempts to the hung worker hit the
	// per-attempt deadline, which crosses the failure threshold.
	_, meta, err := c.Coordinator.RangeMeta(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Answered != 2 || meta.Asked != 3 {
		t.Fatalf("hung-worker query answered %d/%d, want 2/3", meta.Answered, meta.Asked)
	}
	if !c.Coordinator.rpc.BreakerOpen(hungAddr) {
		t.Fatal("breaker not open after repeated per-attempt timeouts")
	}

	// With the breaker open, the same query fast-fails that worker: well
	// under even one per-attempt timeout, with completeness < 1 reported.
	start := time.Now()
	recs, meta, err := rangeDecoded(c.Coordinator, world1, window, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Completeness() >= 1.0 {
		t.Fatalf("completeness = %.2f, want < 1.0", meta.Completeness())
	}
	if elapsed >= perAttempt {
		t.Fatalf("breaker-open query took %v, want < %v (fast fail)", elapsed, perAttempt)
	}
	if len(recs) == 0 {
		t.Fatal("degraded query returned nothing; healthy workers should still answer")
	}
	if s := c.Coordinator.rpc.Stats(); s.BreakerFastFails == 0 {
		t.Errorf("BreakerFastFails = 0, want > 0")
	}
	if v := c.Coordinator.Metrics().Counter("scatter.partial").Value(); v == 0 {
		t.Error("scatter.partial counter never incremented")
	}
}

// TestRangeResultCarriesCompleteness: a remote client querying through the
// coordinator's wire surface sees Asked/Answered on the result.
func TestRangeResultCarriesCompleteness(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	resp, err := c.Transport.Call(ctx, "coord", &wire.RangeQuery{QueryID: 1, Rect: world1, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := resp.(*wire.RangeResult)
	if !ok {
		t.Fatalf("resp = %#v", resp)
	}
	if rr.Asked != 3 || rr.Answered != 3 {
		t.Errorf("Asked/Answered = %d/%d, want 3/3", rr.Asked, rr.Answered)
	}
}

// TestHeartbeatReregisters: a coordinator that lost its membership (restart)
// answers heartbeats with "must re-register"; the worker re-registers and
// resends, rejoining without waiting to be swept dead.
func TestHeartbeatReregisters(t *testing.T) {
	tr := cluster.NewInProc()
	defer tr.Close()
	coord := NewCoordinator("coord", tr, nil, Options{})
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	w := NewWorker("w1", "worker-01", "coord", tr, Options{})
	if err := w.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := w.SendHeartbeat(ctx); err != nil {
		t.Fatalf("heartbeat while registered: %v", err)
	}

	// Coordinator restarts: same address, empty membership.
	coord.Stop()
	coord2 := NewCoordinator("coord", tr, nil, Options{})
	if err := coord2.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord2.Stop()
	if len(coord2.Alive()) != 0 {
		t.Fatal("fresh coordinator has members")
	}

	if err := w.SendHeartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after coordinator restart: %v", err)
	}
	if got := w.Metrics().Counter("heartbeat.reregister").Value(); got != 1 {
		t.Errorf("heartbeat.reregister = %d, want 1", got)
	}
	alive := coord2.Alive()
	if len(alive) != 1 || alive[0].Node != "w1" {
		t.Fatalf("worker did not rejoin: alive = %v", alive)
	}
}

// TestWorkerStartUnreachableCoordinator: registration retries, then surfaces
// a transport error once attempts are exhausted.
func TestWorkerStartUnreachableCoordinator(t *testing.T) {
	tr := cluster.NewInProc()
	defer tr.Close()
	w := NewWorker("w1", "worker-01", "nowhere", tr, Options{
		RetryPolicy: cluster.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, FailureThreshold: -1},
	})
	err := w.Start(ctx)
	if !errors.Is(err, cluster.ErrUnreachable) {
		t.Fatalf("Start err = %v, want ErrUnreachable", err)
	}
	if s := w.rpc.Stats(); s.Retries != 1 {
		t.Errorf("register retries = %d, want 1", s.Retries)
	}
}
