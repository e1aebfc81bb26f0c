package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// haOpts is the fast-failover option set the HA tests share: a short lease so
// failover happens within test patience, and a tight retry policy so calls to
// a dead coordinator fail fast instead of backing off for seconds.
func haOpts(lease time.Duration) Options {
	return Options{
		LeaseInterval:    lease,
		HeartbeatTimeout: 3 * time.Second,
		RetryPolicy: cluster.Policy{
			MaxAttempts:       3,
			PerAttemptTimeout: 500 * time.Millisecond,
			BaseBackoff:       time.Millisecond,
			MaxBackoff:        8 * time.Millisecond,
		},
	}
}

// newHATestCluster builds an m-coordinator, n-worker HA cluster and cleans it
// up with the test.
func newHATestCluster(t *testing.T, m, n int, seed int64, opts Options) *HACluster {
	t.Helper()
	hc, err := NewHACluster(m, n, nil, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hc.Stop)
	return hc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// leaderAmong returns the first coordinator in cs reporting the leader role,
// or nil. Tests that kill a leader scan the survivors only: a stopped
// coordinator's in-memory role is frozen at "leader" and proves nothing.
func leaderAmong(cs []*Coordinator) *Coordinator {
	for _, c := range cs {
		if role, _, _ := c.Role(); role == "leader" {
			return c
		}
	}
	return nil
}

// journalApplied returns c's applied journal index.
func journalApplied(c *Coordinator) uint64 {
	if c.ha == nil {
		return 0
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	return c.ha.applied
}

// journalStats reports c's compaction state: the index folded into the live
// state (base) and the records still resident.
func journalStats(c *Coordinator) (base uint64, resident int) {
	if c.ha == nil {
		return 0, 0
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	return c.ha.base, len(c.ha.journal)
}

// TestHAReplicationToStandby: control-plane mutations on the leader — camera
// registry, assignment, membership, track registry — stream to the standby,
// which answers leader-only traffic with a CodeNotLeader redirect naming the
// leader while serving reads from the replicated state.
func TestHAReplicationToStandby(t *testing.T) {
	hc := newHATestCluster(t, 2, 2, 1, haOpts(150*time.Millisecond))
	leader, standby := hc.Coordinators[0], hc.Coordinators[1]

	if role, _, _ := leader.Role(); role != "leader" {
		t.Fatalf("coordinator 1 booted as %q, want leader", role)
	}
	if role, _, _ := standby.Role(); role != "standby" {
		t.Fatalf("coordinator 2 booted as %q, want standby", role)
	}

	if err := leader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, 8)
	feat[0] = 1
	trackID, _, err := leader.StartTrack(ctx, 1, feat, simT0)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Second, "standby journal catch-up", func() bool {
		applied := journalApplied(standby)
		return applied > 0 && applied == journalApplied(leader)
	})

	if got, want := standby.Epoch(), leader.Epoch(); got != want {
		t.Fatalf("standby epoch %d, leader epoch %d", got, want)
	}
	la, sa := leader.Assignment(), standby.Assignment()
	if len(sa) != len(la) {
		t.Fatalf("standby assignment has %d cameras, leader %d", len(sa), len(la))
	}
	for cam, node := range la {
		if sa[cam] != node {
			t.Fatalf("camera %d assigned to %s on standby, %s on leader", cam, sa[cam], node)
		}
	}
	owner, lastCam, _, ok := standby.TrackInfo(trackID)
	if !ok {
		t.Fatalf("track %d missing from standby registry", trackID)
	}
	if wantOwner, wantCam, _, _ := leader.TrackInfo(trackID); owner != wantOwner || lastCam != wantCam {
		t.Fatalf("standby track state (%s, cam %d) != leader (%s, cam %d)", owner, lastCam, wantOwner, wantCam)
	}
	if len(standby.membership.Alive()) != len(leader.membership.Alive()) {
		t.Fatalf("standby sees %d live workers, leader %d", len(standby.membership.Alive()), len(leader.membership.Alive()))
	}

	// Leader-only traffic is redirected with the leader's address.
	_, err = hc.Net.View("client").Call(ctx, CoordAddrHA(2), &wire.Heartbeat{Node: "w01", Seq: 1})
	var re *cluster.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeNotLeader {
		t.Fatalf("standby answered heartbeat with %v, want CodeNotLeader redirect", err)
	}
	if re.Message != CoordAddrHA(1) {
		t.Fatalf("redirect names %q, want %q", re.Message, CoordAddrHA(1))
	}

	// Reads fall through on the standby (degraded mode).
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	if _, _, err := standby.RangeMeta(ctx, world1, window, 0); err != nil {
		t.Fatalf("standby read failed: %v", err)
	}
}

// TestHAFailoverElectsStandby: killing the leader promotes the lowest-ID
// up-to-date standby, the epoch moves past the deposed leader's, workers
// re-home via rotation, and the replicated track registry survives intact.
func TestHAFailoverElectsStandby(t *testing.T) {
	lease := 150 * time.Millisecond
	hc := newHATestCluster(t, 3, 2, 2, haOpts(lease))
	leader := hc.Coordinators[0]

	if err := leader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, 8)
	feat[0] = 1
	trackID, _, err := leader.StartTrack(ctx, 1, feat, simT0)
	if err != nil {
		t.Fatal(err)
	}
	wantApplied := journalApplied(leader)
	waitFor(t, 2*time.Second, "standbys caught up", func() bool {
		return journalApplied(hc.Coordinators[1]) == wantApplied &&
			journalApplied(hc.Coordinators[2]) == wantApplied
	})
	epoch0 := leader.Epoch()
	oldOwner, _, _, _ := leader.TrackInfo(trackID)

	leader.Stop()
	survivors := hc.Coordinators[1:]
	waitFor(t, 20*lease, "a survivor to take over", func() bool {
		return leaderAmong(survivors) != nil
	})
	newLeader := leaderAmong(survivors)
	if newLeader != hc.Coordinators[1] {
		role, _, _ := hc.Coordinators[1].Role()
		t.Fatalf("election picked %s; want lowest-ID up-to-date standby c2 (c2 role %q)", newLeader.Addr(), role)
	}
	if newLeader.Epoch() <= epoch0 {
		t.Fatalf("promoted epoch %d did not move past deposed leader's %d", newLeader.Epoch(), epoch0)
	}
	if c := newLeader.Metrics().Counter("failover.total").Value(); c < 1 {
		t.Fatalf("failover.total = %d after a failover, want >= 1", c)
	}
	if s := newLeader.Metrics().Counter("leaderless.seconds").Value(); s < 1 {
		t.Fatalf("leaderless.seconds = %d after a failover, want >= 1", s)
	}

	// The replicated track registry survived the leader's death.
	owner, _, _, ok := newLeader.TrackInfo(trackID)
	if !ok {
		t.Fatalf("track %d lost across failover", trackID)
	}
	if owner != oldOwner {
		t.Fatalf("track %d owner %s after failover, want %s", trackID, owner, oldOwner)
	}

	// Workers re-home: their next heartbeats rotate off the dead coordinator
	// (or follow the redirect) and land on the new leader.
	waitFor(t, 2*time.Second, "workers re-homed to the new leader", func() bool {
		for _, w := range hc.Workers {
			w.SendHeartbeat(ctx) //nolint:errcheck // retried until the waitFor deadline
		}
		return len(newLeader.membership.Alive()) == len(hc.Workers)
	})

	// The data plane serves through the new leader.
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	_, meta, err := newLeader.RangeMeta(ctx, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Answered > meta.Asked {
		t.Fatalf("scatter over-reports after failover: answered %d > asked %d", meta.Answered, meta.Asked)
	}
	if err := newLeader.StopTrack(ctx, trackID); err != nil {
		t.Fatalf("stop track on new leader: %v", err)
	}
}

// TestHAPromotionNeverLeadsAtDeposedEpoch: a promoted standby flips its role
// before Reassign publishes the bumped assignment epoch, and in that window
// it must not report itself as leader: Role and the LeaderInfo peers poll
// would name it leader at the deposed leader's epoch. The test holds the
// standby's coordinator lock, which Reassign needs before it publishes, so
// the window stays open until the promotion has visibly begun; a poller
// checks the invariant throughout the failover.
func TestHAPromotionNeverLeadsAtDeposedEpoch(t *testing.T) {
	lease := 150 * time.Millisecond
	hc := newHATestCluster(t, 2, 2, 3, haOpts(lease))
	leader, standby := hc.Coordinators[0], hc.Coordinators[1]
	if err := leader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	wantApplied := journalApplied(leader)
	waitFor(t, 2*time.Second, "standby caught up", func() bool {
		return journalApplied(standby) == wantApplied
	})
	epoch0 := standby.Epoch()

	// violation reads the role before the epoch: the epoch only grows, so a
	// leader role read first and an epoch read after at or below epoch0 mean
	// the role was claimed at epoch0.
	violation := func() string {
		if role, _, _ := standby.Role(); role == "leader" && standby.Epoch() <= epoch0 {
			return "Role() = leader"
		}
		resp, err := standby.onLeaderQuery()
		if li, ok := resp.(*wire.LeaderInfo); err == nil && ok && li.IsLeader && li.Epoch <= epoch0 {
			return "LeaderInfo.IsLeader"
		}
		return ""
	}
	stop := make(chan struct{})
	polled := make(chan string, 1)
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := violation(); v != "" {
				polled <- v
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	standby.mu.Lock()
	leader.Stop()
	waitFor(t, 20*lease, "the standby to begin its promotion", func() bool { return !standby.IsStandby() })
	held := violation()
	standby.mu.Unlock()
	if held != "" {
		t.Fatalf("%s at the deposed leader's epoch %d while the promotion's Reassign was parked", held, epoch0)
	}
	waitFor(t, 20*lease, "the standby to lead", func() bool { return leaderAmong(hc.Coordinators[1:]) == standby })
	close(stop)
	if v := <-polled; v != "" {
		t.Fatalf("%s at the deposed leader's epoch %d during failover", v, epoch0)
	}
	if e := standby.Epoch(); e <= epoch0 {
		t.Fatalf("promoted epoch %d did not move past %d", e, epoch0)
	}
}

// TestHATakeoverWithUnboundedAttempts: a negative PerAttemptTimeout leaves
// attempts unbounded, and so must it leave the new leader's takeover
// reassignment: that push runs without a deadline and succeeds, instead of
// failing on a context that expired before it began. The survivors' links to
// the workers carry 1 ms of latency, so a push waits on its context as it
// would over TCP.
func TestHATakeoverWithUnboundedAttempts(t *testing.T) {
	lease := 150 * time.Millisecond
	opts := haOpts(lease)
	opts.RetryPolicy.PerAttemptTimeout = -1
	hc := newHATestCluster(t, 3, 2, 3, opts)
	leader := hc.Coordinators[0]
	for _, c := range hc.Coordinators[1:] {
		for _, w := range hc.Workers {
			hc.Net.View(c.Addr()).SetProgram(w.Addr(), cluster.FaultProgram{Latency: time.Millisecond})
		}
	}
	if err := leader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	wantApplied := journalApplied(leader)
	waitFor(t, 2*time.Second, "standbys caught up", func() bool {
		return journalApplied(hc.Coordinators[1]) == wantApplied &&
			journalApplied(hc.Coordinators[2]) == wantApplied
	})

	leader.Stop()
	survivors := hc.Coordinators[1:]
	var newLeader *Coordinator
	waitFor(t, 20*lease, "a survivor to finish its takeover", func() bool {
		newLeader = leaderAmong(survivors)
		return newLeader != nil && newLeader.Metrics().Counter("ha.promotions").Value() > 0
	})
	if n := newLeader.Metrics().Counter("ha.promote_reassign_errors").Value(); n != 0 {
		t.Fatalf("ha.promote_reassign_errors = %d, want 0: the takeover reassignment failed", n)
	}
}

// TestHAMajorityAckGatesClientAck is the regression test for the false-ack
// hole: client-facing control mutations must not be acknowledged until a
// majority of the HA group has applied the record. A leader partitioned from
// every peer (group minority) must fail mutations with ErrNotCommitted and
// reject registrations with CodeUnavailable instead of silently accepting
// state a failover would forget; on the majority side, a successful mutation
// implies at least one standby has already applied it by the time the call
// returns.
func TestHAMajorityAckGatesClientAck(t *testing.T) {
	lease := 120 * time.Millisecond
	hc := newHATestCluster(t, 3, 1, 5, haOpts(lease))
	old := hc.Coordinators[0]

	// Healthy majority: the mutation is synchronous, so when it returns at
	// least one standby (the acking majority member) has already applied it.
	if err := old.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	caughtUp := 0
	for _, s := range hc.Coordinators[1:] {
		if journalApplied(s) == journalApplied(old) {
			caughtUp++
		}
	}
	if caughtUp < 1 {
		t.Fatalf("no standby had applied the mutation when the client ack returned (leader at %d)", journalApplied(old))
	}

	// Cut the leader off from both peers (its worker link stays up): it is
	// now the minority side and must stop acknowledging mutations.
	hc.Net.Partition(CoordAddrHA(1), CoordAddrHA(2))
	hc.Net.Partition(CoordAddrHA(1), CoordAddrHA(3))

	if err := old.AddCameras(ctx, gridCams(world1, 3), 50); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("minority leader acked AddCameras (err=%v), want ErrNotCommitted", err)
	}
	if c := old.Metrics().Counter("ha.commit_timeouts").Value(); c < 1 {
		t.Fatalf("ha.commit_timeouts = %d on the minority leader, want >= 1", c)
	}
	_, err := hc.Net.View("client").Call(ctx, CoordAddrHA(1), &wire.Register{Node: "w09", Addr: "worker-09", Capacity: 1})
	var re *cluster.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnavailable {
		t.Fatalf("minority leader answered Register with %v, want CodeUnavailable", err)
	}

	// Meanwhile the majority side fails over and keeps committing.
	survivors := hc.Coordinators[1:]
	waitFor(t, 20*lease, "majority side to elect a leader", func() bool {
		return leaderAmong(survivors) != nil
	})
	newLeader := leaderAmong(survivors)

	hc.Net.Heal(CoordAddrHA(1), CoordAddrHA(2))
	hc.Net.Heal(CoordAddrHA(1), CoordAddrHA(3))
	waitFor(t, 20*lease, "deposed minority leader to step down", func() bool {
		role, _, _ := old.Role()
		return role == "standby"
	})

	// Majority restored: mutations commit again, synchronously.
	if err := newLeader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatalf("post-heal AddCameras on the new leader: %v", err)
	}
	caughtUp = 0
	for _, c := range hc.Coordinators {
		if c != newLeader && journalApplied(c) == journalApplied(newLeader) {
			caughtUp++
		}
	}
	if caughtUp < 1 {
		t.Fatalf("no standby in sync with the new leader (at %d) when its ack returned", journalApplied(newLeader))
	}
}

// TestHAJournalCompactionAndSnapshotCatchUp: the journal does not grow
// without bound — past compactMinJournal resident records the
// majority-durable prefix folds into the base offset — and a peer that needs
// compacted history (here: a standby partitioned through thousands of
// appends) catches up from a full-state snapshot frame instead of a replay
// from index 1.
func TestHAJournalCompactionAndSnapshotCatchUp(t *testing.T) {
	lease := 120 * time.Millisecond
	hc := newHATestCluster(t, 3, 1, 6, haOpts(lease))
	leader, behind := hc.Coordinators[0], hc.Coordinators[2]

	if err := leader.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	// c3 misses the whole append burst; c2 keeps the majority acking.
	hc.Net.Partition(CoordAddrHA(1), CoordAddrHA(3))

	client := hc.Net.View("client")
	appends := compactMinJournal + 500
	for i := 0; i < appends; i++ {
		// Re-registering is an idempotent membership upsert and the cheapest
		// journaled mutation; each call is majority-acked before returning.
		if _, err := client.Call(ctx, CoordAddrHA(1), &wire.Register{Node: "w01", Addr: "worker-01", Capacity: 1}); err != nil {
			t.Fatalf("register append %d: %v", i, err)
		}
	}

	base, resident := journalStats(leader)
	if base == 0 {
		t.Fatalf("leader journal never compacted after %d appends (resident %d)", appends, resident)
	}
	if resident > compactMinJournal+64 {
		t.Fatalf("leader journal holds %d resident records after compaction, want <= %d", resident, compactMinJournal+64)
	}
	if c := leader.Metrics().Counter("ha.compacted").Value(); c < 1 {
		t.Fatalf("ha.compacted = %d on the leader, want >= 1", c)
	}

	// Heal: the stale standby's ack cursor is far below the leader's base, so
	// catch-up must ride a snapshot frame, then the live tail.
	hc.Net.Heal(CoordAddrHA(1), CoordAddrHA(3))
	waitFor(t, 5*time.Second, "partitioned standby to catch up via snapshot", func() bool {
		return journalApplied(behind) == journalApplied(leader)
	})
	if c := leader.Metrics().Counter("ha.snapshots_sent").Value(); c < 1 {
		t.Fatalf("ha.snapshots_sent = %d on the leader, want >= 1", c)
	}
	if c := behind.Metrics().Counter("ha.snapshots_applied").Value(); c < 1 {
		t.Fatalf("ha.snapshots_applied = %d on the caught-up standby, want >= 1", c)
	}
	// The snapshot carried real state, not just an index: epoch, assignment,
	// and membership all converged.
	if got, want := behind.Epoch(), leader.Epoch(); got != want {
		t.Fatalf("standby epoch %d after snapshot catch-up, leader %d", got, want)
	}
	la, sa := leader.Assignment(), behind.Assignment()
	if len(sa) != len(la) {
		t.Fatalf("standby assignment has %d cameras after snapshot, leader %d", len(sa), len(la))
	}
	for cam, node := range la {
		if sa[cam] != node {
			t.Fatalf("camera %d assigned to %s on standby, %s on leader", cam, sa[cam], node)
		}
	}
	if len(behind.membership.Alive()) != len(leader.membership.Alive()) {
		t.Fatalf("standby sees %d live workers after snapshot, leader %d", len(behind.membership.Alive()), len(leader.membership.Alive()))
	}
}

// TestHAElectionIgnoresStaleLeaderClaim: a deposed leader that still claims
// leadership at a stale epoch must not abort a standby's election — the
// lease rejects the renewal, and the claimant is ranked as an ordinary
// candidate. Before the fix, the standby cleared its election clock on any
// reachable "I am the leader" answer, deferring failover for as long as the
// stale claimant kept answering.
func TestHAElectionIgnoresStaleLeaderClaim(t *testing.T) {
	tr := cluster.NewInProc()
	t.Cleanup(func() { tr.Close() })

	// The stale claimant: always says it leads, at an epoch far below what
	// the standby's lease has already accepted, with a journal behind the
	// standby's — a deposed leader frozen in its old reign.
	stale := &wire.LeaderInfo{Node: "c1", Addr: "coord-1", IsLeader: true, Leader: "c1", LeaderAddr: "coord-1", Epoch: 1, Applied: 0}
	srv, err := tr.Serve("coord-1", func(_ context.Context, _ string, req any) (any, error) {
		switch m := req.(type) {
		case *wire.LeaderQuery:
			return stale, nil
		case *wire.Replicate:
			// Ack whatever the (promoted) standby streams so its majority
			// commit wait is satisfied.
			if m.SnapIndex > 0 {
				return &wire.ReplicateAck{Applied: m.SnapIndex}, nil
			}
			return &wire.ReplicateAck{Applied: m.FromIndex + uint64(len(m.Records)) - 1}, nil
		}
		return &wire.Error{Code: wire.CodeBadRequest, Message: "unexpected"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	opts := haOpts(100 * time.Millisecond)
	opts.CoordinatorID = "c2"
	opts.CoordinatorPeers = map[wire.NodeID]string{"c1": "coord-1"}
	opts.Standby = true
	standby := NewCoordinator("coord-2", tr, nil, opts)
	if err := standby.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(standby.Stop)

	// One real frame from the c1 reign at epoch 5: the standby's lease now
	// knows epoch 5, and its journal is ahead of the stale claimant's.
	resp, err := tr.Call(ctx, "coord-2", &wire.Replicate{
		Leader: "c1", LeaderAddr: "coord-1", Epoch: 5, Commit: 1, FromIndex: 1,
		Records: []wire.ControlRecord{{Index: 1, Epoch: 5, Op: wire.OpMember, Member: wire.MemberRecord{Node: "w99", Addr: "worker-99", Capacity: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.ReplicateAck); !ok || ack.Applied != 1 {
		t.Fatalf("seed replicate ack = %#v, want Applied 1", resp)
	}

	// The real c1 never renews again; only the stale claim keeps answering.
	// The standby must still fail over: renewal rejected, claimant outranked
	// (applied 1 beats 0), promotion follows.
	// The promotion counter lands after the role flip (Reassign runs in
	// between), so wait on both.
	waitFor(t, 5*time.Second, "standby to promote past the stale claimant", func() bool {
		role, _, _ := standby.Role()
		return role == "leader" && standby.Metrics().Counter("ha.promotions").Value() >= 1
	})
}

// TestHAStaleLeaderStepsDown: a leader partitioned away keeps believing it
// leads; the standby promotes with a higher epoch; on heal the deposed leader
// is fenced by the epoch, steps down, and resynchronizes its journal from the
// new leader's stream.
func TestHAStaleLeaderStepsDown(t *testing.T) {
	lease := 120 * time.Millisecond
	hc := newHATestCluster(t, 2, 1, 3, haOpts(lease))
	old, next := hc.Coordinators[0], hc.Coordinators[1]

	if err := old.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "standby caught up", func() bool {
		return journalApplied(next) == journalApplied(old)
	})

	hc.Net.Isolate(CoordAddrHA(1))
	waitFor(t, 20*lease, "standby promotion behind the partition", func() bool {
		role, _, _ := next.Role()
		return role == "leader"
	})
	if role, _, _ := old.Role(); role != "leader" {
		t.Fatalf("partitioned leader role %q; it cannot have learned of the new leader yet", role)
	}

	hc.Net.Rejoin(CoordAddrHA(1))
	waitFor(t, 20*lease, "deposed leader to step down", func() bool {
		role, _, _ := old.Role()
		return role == "standby"
	})
	if role, _, _ := next.Role(); role != "leader" {
		t.Fatalf("new leader role %q after heal, want leader", role)
	}
	if c := old.Metrics().Counter("ha.stepdowns").Value(); c < 1 {
		t.Fatalf("ha.stepdowns = %d on the deposed leader, want >= 1", c)
	}

	// The demoted node resynchronizes from the new leader's journal and
	// converges on its epoch.
	waitFor(t, 2*time.Second, "demoted node journal resync", func() bool {
		return journalApplied(old) == journalApplied(next) && old.Epoch() == next.Epoch()
	})
}

// TestHAWorkerQueuesPushesWhileLeaderless: a worker that cannot reach any
// coordinator queues its pushes (bounded) instead of dropping them, and
// drains the queue once a heartbeat lands again.
func TestHAWorkerQueuesPushesWhileLeaderless(t *testing.T) {
	hc := newHATestCluster(t, 2, 1, 4, haOpts(150*time.Millisecond))
	w := hc.Workers[0]

	if err := hc.Coordinators[0].AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}

	// Sever the worker from both coordinators — total control-plane outage
	// from its point of view.
	hc.Net.Partition(w.Addr(), CoordAddrHA(1))
	hc.Net.Partition(w.Addr(), CoordAddrHA(2))

	for i := 0; i < 3; i++ {
		w.pushCoord(ctx, &wire.TrackUpdate{TrackID: 900 + uint64(i), Camera: 1, Time: simT0})
	}
	if depth := w.Metrics().Gauge("handoff.queue_depth").Value(); depth != 3 {
		t.Fatalf("handoff.queue_depth = %d while leaderless, want 3", depth)
	}

	hc.Net.Heal(w.Addr(), CoordAddrHA(1))
	hc.Net.Heal(w.Addr(), CoordAddrHA(2))
	waitFor(t, 2*time.Second, "queued pushes to drain after heal", func() bool {
		w.SendHeartbeat(ctx) //nolint:errcheck // retried until the waitFor deadline
		return w.Metrics().Gauge("handoff.queue_depth").Value() == 0
	})
	if drained := w.Metrics().Counter("handoff.queue_drained").Value(); drained != 3 {
		t.Fatalf("handoff.queue_drained = %d, want 3", drained)
	}
}

// TestHAWorkerQueueSheddingIsBounded: the deferred-push queue sheds its
// oldest entries at the cap instead of growing without bound.
func TestHAWorkerQueueSheddingIsBounded(t *testing.T) {
	w := NewWorker("w01", "worker-01", "coord", cluster.NewInProc(), Options{})
	for i := 0; i < handoffQueueMax+10; i++ {
		w.enqueuePush(&wire.TrackUpdate{TrackID: uint64(i)})
	}
	if depth := w.Metrics().Gauge("handoff.queue_depth").Value(); depth != handoffQueueMax {
		t.Fatalf("queue depth %d, want capped at %d", depth, handoffQueueMax)
	}
	if shed := w.Metrics().Counter("handoff.queue_shed").Value(); shed != 10 {
		t.Fatalf("handoff.queue_shed = %d, want 10", shed)
	}
}

// TestSweepRegisterEpochRace is the regression test for the sweep/heartbeat
// epoch race: Sweep now snapshots liveness, epoch, and each orphan's
// replacement owner at one instant per pass and re-validates the epoch before
// committing ownership, so a Reassign racing the pass invalidates the commit
// instead of recording an owner read from a superseded assignment. Run under
// -race; the assertions are deliberately modest — the detector is the judge.
func TestSweepRegisterEpochRace(t *testing.T) {
	opts := Options{HeartbeatTimeout: 30 * time.Millisecond}
	cl := newTestCluster(t, 3, opts)
	if err := cl.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, 8)
	feat[0] = 1
	var trackIDs []uint64
	for cam := uint32(1); cam <= 6; cam++ {
		id, _, err := cl.Coordinator.StartTrack(ctx, cam, feat, simT0)
		if err != nil {
			t.Fatal(err)
		}
		trackIDs = append(trackIDs, id)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Sweeper: liveness checks and orphan recovery, continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.Coordinator.Sweep(ctx, time.Now())
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Heartbeater: the first worker stays alive; the others flap dead and
	// revive across the 30ms timeout, so sweeps keep finding fresh orphans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				cl.Workers[0].SendHeartbeat(ctx) //nolint:errcheck // liveness churn only
				if i%5 == 0 {
					for _, w := range cl.Workers[1:] {
						w.SendHeartbeat(ctx) //nolint:errcheck // liveness churn only
					}
				}
				i++
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	// Reassigner: epoch bumps racing the sweep passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.Coordinator.Reassign(ctx) //nolint:errcheck // transient no-live-worker windows are expected
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesce: everyone heartbeats, one final sweep recovers any remaining
	// orphans onto live owners.
	for _, w := range cl.Workers {
		if err := w.SendHeartbeat(ctx); err != nil {
			t.Fatalf("final heartbeat: %v", err)
		}
	}
	cl.Coordinator.Sweep(ctx, time.Now())
	alive := make(map[wire.NodeID]bool)
	for _, m := range cl.Coordinator.membership.Alive() {
		alive[m.Node] = true
	}
	for _, id := range trackIDs {
		owner, _, _, ok := cl.Coordinator.TrackInfo(id)
		if !ok {
			t.Fatalf("track %d vanished during sweep/register churn", id)
		}
		if !alive[owner] {
			t.Fatalf("track %d owned by dead worker %s after quiesce", id, owner)
		}
	}
}

// TestCoordinatorRestartMidBatchDedup: the (Source, Seq) replay-dedup state
// lives on the workers, so it survives a coordinator restart mid-ingest. The
// transport duplicates deliveries throughout; the coordinator dies and is
// replaced between batches; workers re-register via CodeMustRegister; and the
// final complete answer still contains every generated observation exactly
// once.
func TestCoordinatorRestartMidBatchDedup(t *testing.T) {
	policy := cluster.Policy{
		MaxAttempts:       4,
		PerAttemptTimeout: time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        8 * time.Millisecond,
	}
	opts := Options{RetryPolicy: policy, HeartbeatTimeout: 5 * time.Second}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 7)
	cl, err := NewLocalClusterOver(faulty, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cams := gridCams(world1, 2)
	if err := cl.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	for _, w := range cl.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{Duplicate: 0.3})
	}

	world, err := sim.NewWorld(sim.Config{
		World:      world1,
		NumObjects: 8,
		Model:      &sim.RandomWaypoint{World: world1, MinSpeed: 30, MaxSpeed: 60},
		Seed:       21,
		FeatureDim: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := vision.NewDetector(vision.DetectorConfig{Seed: 22})
	// The ingester outlives the coordinator restart: its per-worker lanes keep
	// their sequence counters, which is exactly why the workers' dedup cursors
	// remain valid across the restart.
	ing := NewIngesterWith(cl.Coordinator, cluster.NewResilient(faulty, policy), IngesterOptions{PipelineDepth: 2, Source: "restart-src"})
	defer ing.Close()

	generated := 0
	world.Run(40, cl.Coordinator.Network(), det, func(frame int, dets []vision.Detection) {
		generated += len(dets)
		if _, err := ing.IngestDetections(ctx, dets); err != nil {
			t.Fatalf("ingest frame %d: %v", frame, err)
		}
		if frame == 19 {
			// Mid-run coordinator death and replacement at the same address.
			// The workers and the ingester keep running throughout.
			cl.Coordinator.Stop()
			nc := NewCoordinator("coord", faulty, nil, opts)
			if err := nc.Start(); err != nil {
				t.Fatalf("restart coordinator: %v", err)
			}
			cl.Coordinator = nc
			// Workers discover the restart on their next heartbeat: the fresh
			// coordinator answers CodeMustRegister and they re-register.
			for _, w := range cl.Workers {
				if err := w.SendHeartbeat(ctx); err != nil {
					t.Fatalf("post-restart heartbeat: %v", err)
				}
			}
			// Same cameras, same live workers: the spatial partition is
			// deterministic, so the assignment matches the pre-restart one and
			// in-flight lanes keep routing to the right owners.
			if err := nc.AddCameras(ctx, cams, 50); err != nil {
				t.Fatalf("re-register cameras: %v", err)
			}
		}
	})
	if _, err := ing.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if generated == 0 {
		t.Fatal("simulation generated no observations; test is vacuous")
	}
	if faulty.Injected().Duplicated == 0 {
		t.Fatal("fault program injected no duplicates; dedup was not exercised")
	}

	// Verify the workers re-registered with the replacement coordinator.
	for _, w := range cl.Workers {
		if w.Metrics().Counter("heartbeat.reregister").Value() < 1 {
			t.Fatalf("worker %s never took the re-register path", w.ID())
		}
	}

	// Quiet the link and take one complete answer: every observation exactly
	// once despite duplicated deliveries straddling the restart.
	for _, w := range cl.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{})
	}
	window := wire.TimeWindow{From: simT0, To: simT0.Add(24 * time.Hour)}
	recs, meta, err := rangeDecoded(cl.Coordinator, world1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Answered != meta.Asked {
		t.Fatalf("final answer incomplete: %d of %d workers", meta.Answered, meta.Asked)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Fatalf("observation %d applied twice across the restart", r.ObsID)
		}
		seen[r.ObsID] = true
	}
	if len(recs) != generated {
		t.Fatalf("final answer has %d records, want exactly %d generated", len(recs), generated)
	}
	replays := int64(0)
	for _, w := range cl.Workers {
		replays += w.Metrics().Counter("ingest.replays").Value()
	}
	if replays == 0 {
		t.Fatal("no deliveries were deduplicated; duplicates must have leaked into the index")
	}
}
