package core

import (
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestResightCancelsStalePeerPrimes is the regression test for the orphaned-
// prime bug: the owner loses the target, a handoff begins and peers are
// primed, then the owner re-sights the target. The re-sight must revoke every
// armed prime — before the fix, the primes stayed live and a look-alike at a
// primed camera would claim and fork the track.
func TestResightCancelsStalePeerPrimes(t *testing.T) {
	// Broadcast handoff guarantees every worker gets primed; a long PrimeTTL
	// guarantees the stale primes would still be live when the look-alike
	// appears.
	opts := Options{LostAfter: 2 * time.Second, PrimeTTL: time.Minute, BroadcastHandoff: true}
	c := newTestCluster(t, 4, opts)
	if err := c.Coordinator.AddCameras(ctx, corridorCams(8, 100), 60); err != nil {
		t.Fatal(err)
	}
	feat := vision.NewRandomFeature(newRand(21), 32)
	ingestDirect(t, c, wire.Observation{ObsID: 1, Camera: 1, Time: simT0, Pos: geo.Pt(30, 50), Feature: feat})
	trackID, ch, err := c.Coordinator.StartTrack(ctx, 1, feat, simT0)
	if err != nil {
		t.Fatal(err)
	}
	ownerBefore, _, _, ok := c.Coordinator.TrackInfo(trackID)
	if !ok {
		t.Fatal("track not registered")
	}

	// The target goes silent past LostAfter: empty frames advance the
	// observation clock everywhere, so the owner starts a handoff and the
	// coordinator primes all workers.
	now := simT0
	for i := 1; i <= 4; i++ {
		now = simT0.Add(time.Duration(i) * time.Second)
		for _, w := range c.Workers {
			if _, err := c.Transport.Call(ctx, w.Addr(), &wire.IngestBatch{FrameTime: now}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Coordinator.Metrics().Snapshot().Counters["handoff.begun"] == 0 {
		t.Fatal("handoff never began; test premise broken")
	}

	// The target re-appears at its original camera: the handoff is moot and
	// the primes are now stale.
	now = now.Add(time.Second)
	ingestDirect(t, c, wire.Observation{ObsID: 2, Camera: 1, Time: now, Pos: geo.Pt(40, 50), Feature: feat})

	// Well before the primes' TTL, a look-alike appears at a far camera owned
	// by another worker. With the stale primes revoked nobody may claim.
	now = now.Add(time.Second)
	ingestDirect(t, c, wire.Observation{ObsID: 3, Camera: 6, Time: now, Pos: geo.Pt(550, 50), Feature: feat})

	var claimed int64
	for _, w := range c.Workers {
		claimed += w.Metrics().Snapshot().Counters["tracks.claimed"]
	}
	if claimed != 0 {
		t.Fatalf("stale primes claimed the track %d time(s) after re-sight", claimed)
	}
	snap := c.Coordinator.Metrics().Snapshot()
	if got := snap.Counters["handoff.completed"]; got != 0 {
		t.Errorf("handoff completed %d times, want 0 (re-sight should abort it)", got)
	}
	if snap.Counters["handoff.aborted"] == 0 {
		t.Error("re-sight did not abort the in-flight handoff")
	}
	owner, cam, _, ok := c.Coordinator.TrackInfo(trackID)
	if !ok {
		t.Fatal("track vanished")
	}
	if owner != ownerBefore {
		t.Errorf("ownership forked: %v -> %v", ownerBefore, owner)
	}
	if cam != 1 {
		t.Errorf("track at camera %d, want 1", cam)
	}
	for len(ch) > 0 {
		<-ch
	}
}

// TestSweepCommitsOwnershipOnlyOnRecoverySuccess is the regression test for
// the sweep ownership bug: when the recovery TrackStart RPC to the
// replacement worker fails, the track must keep its dead owner so the next
// sweep retries — before the fix, ownership was committed up front and the
// failed track pointed forever at a worker that had never heard of it.
func TestSweepCommitsOwnershipOnlyOnRecoverySuccess(t *testing.T) {
	opts := Options{
		HeartbeatTimeout: 50 * time.Millisecond,
		RetryPolicy:      cluster.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 5)
	c, err := NewLocalClusterOver(faulty, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}

	// Start a track on a camera owned by the worker we are about to kill.
	victim := c.Workers[0]
	victimCams := camerasOf(c.Coordinator.Assignment(), victim.ID())
	if len(victimCams) == 0 {
		t.Fatal("victim owns no cameras")
	}
	feat := vision.NewRandomFeature(newRand(31), 32)
	trackID, _, err := c.Coordinator.StartTrack(ctx, victimCams[0], feat, simT0)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim (silent heartbeats) while every call to the survivor is
	// dropped, so the recovery TrackStart cannot be delivered.
	survivor := c.Workers[1]
	faulty.SetProgram(survivor.Addr(), cluster.FaultProgram{Drop: 1.0})
	deadline := time.Now().Add(2 * time.Second)
	var died []cluster.Member
	for time.Now().Before(deadline) {
		survivor.SendHeartbeat(ctx) //nolint:errcheck // heartbeats go to the coordinator, not the blocked link
		died = c.Coordinator.Sweep(ctx, time.Now())
		if len(died) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(died) != 1 || died[0].Node != victim.ID() {
		t.Fatalf("sweep reported %+v, want the victim's death", died)
	}
	snap := c.Coordinator.Metrics().Snapshot()
	if snap.Counters["tracks.recover_errors"] == 0 {
		t.Fatal("recovery RPC did not fail; test premise broken")
	}
	if snap.Counters["tracks.recovered"] != 0 {
		t.Fatal("recovery reported success despite the dropped link")
	}
	// The core assertion: ownership must NOT have moved to the survivor,
	// because the survivor never accepted the track.
	owner, _, _, ok := c.Coordinator.TrackInfo(trackID)
	if !ok {
		t.Fatal("track vanished")
	}
	if owner == survivor.ID() {
		t.Fatal("ownership committed to the survivor although the recovery RPC failed")
	}

	// Heal the link, re-push the assignment the survivor missed, and sweep
	// again: the still-orphaned track must now be recovered.
	faulty.ClearProgram(survivor.Addr())
	if err := c.Coordinator.Reassign(ctx); err != nil {
		t.Fatal(err)
	}
	survivor.SendHeartbeat(ctx) //nolint:errcheck // keep the survivor alive through the next sweep
	c.Coordinator.Sweep(ctx, time.Now())
	snap = c.Coordinator.Metrics().Snapshot()
	if snap.Counters["tracks.recovered"] == 0 {
		t.Fatal("orphaned track was not retried after the link healed")
	}
	owner, _, _, ok = c.Coordinator.TrackInfo(trackID)
	if !ok {
		t.Fatal("track vanished after recovery")
	}
	if owner != survivor.ID() {
		t.Errorf("recovered track owned by %v, want %v", owner, survivor.ID())
	}
	if got := survivor.Metrics().Snapshot().Gauges["tracks.resident"]; got != 1 {
		t.Errorf("survivor resident tracks = %d, want 1", got)
	}
}
