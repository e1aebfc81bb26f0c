package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// camerasOf returns the cameras a assigns to node, sorted.
func camerasOf(a cluster.Assignment, node wire.NodeID) []uint32 {
	var out []uint32
	for cam, n := range a {
		if n == node {
			out = append(out, cam)
		}
	}
	slices.Sort(out)
	return out
}

// corridorCams builds n directional cameras in a row along y=50, each
// covering a disjoint x span of width `span` starting at x=0, as wire infos.
// Omni sectors keep visibility exact: camera i covers x ∈ [i·span, (i+1)·span]
// approximately via a circle of radius span/2 centered mid-span.
func corridorCams(n int, span float64) []wire.CameraInfo {
	out := make([]wire.CameraInfo, n)
	for i := range out {
		out[i] = wire.CameraInfo{
			ID:      uint32(i + 1),
			Pos:     geo.Pt(span*(float64(i)+0.5), 50),
			Orient:  0,
			HalfFOV: 3.14159265,
			Range:   span / 2,
		}
	}
	return out
}

// walkTarget ingests a target walking left-to-right through the corridor at
// the given observation cadence, returning the final observation time.
func walkTarget(t *testing.T, c *Cluster, feat vision.Feature, from, to geo.Point, steps int, start time.Time, cadence time.Duration, firstObs uint64) time.Time {
	t.Helper()
	net := c.Coordinator.Network()
	now := start
	for i := 0; i <= steps; i++ {
		p := from.Lerp(to, float64(i)/float64(steps))
		now = start.Add(time.Duration(i) * cadence)
		if covering := net.CamerasCovering(p); len(covering) > 0 {
			ingestDirect(t, c, wire.Observation{
				ObsID: firstObs + uint64(i), Camera: uint32(covering[0]),
				Time: now, Pos: p, Feature: feat,
			})
		}
		// Every camera produces a frame each tick; deliver the empty-frame
		// clock to all workers so loss detection advances cluster-wide.
		for _, w := range c.Workers {
			if _, err := c.Transport.Call(ctx, w.Addr(), &wire.IngestBatch{FrameTime: now}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return now
}

func TestTrackingFollowsAcrossWorkers(t *testing.T) {
	opts := Options{LostAfter: 2 * time.Second, PrimeTTL: time.Minute}
	c := newTestCluster(t, 4, opts)
	// 8 corridor cameras, span 100 → world x ∈ [0, 800].
	if err := c.Coordinator.AddCameras(ctx, corridorCams(8, 100), 60); err != nil {
		t.Fatal(err)
	}
	feat := vision.NewRandomFeature(newRand(7), 32)

	// Seed the track at the first camera.
	startT := simT0
	ingestDirect(t, c, wire.Observation{ObsID: 1, Camera: 1, Time: startT, Pos: geo.Pt(30, 50), Feature: feat})
	trackID, ch, err := c.Coordinator.StartTrack(ctx, 1, feat, startT)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the target through all 8 cameras; 1 observation per second.
	walkTarget(t, c, feat, geo.Pt(30, 50), geo.Pt(770, 50), 74, startT.Add(time.Second), time.Second, 100)

	// Drain updates: the track must have progressed to the last camera.
	var lastCam uint32
	var updates int
	for {
		select {
		case u := <-ch:
			updates++
			if u.Camera > lastCam {
				lastCam = u.Camera
			}
		default:
			goto done
		}
	}
done:
	if updates == 0 {
		t.Fatal("no track updates")
	}
	if lastCam != 8 {
		t.Errorf("track reached camera %d, want 8", lastCam)
	}
	owner, cam, handoffs, ok := c.Coordinator.TrackInfo(trackID)
	if !ok {
		t.Fatal("track vanished")
	}
	if cam != 8 {
		t.Errorf("TrackInfo camera = %d", cam)
	}
	// The corridor spans 4 workers (spatial partitioning of 8 cameras): at
	// least one cross-worker handoff must have happened.
	if handoffs == 0 {
		t.Error("no cross-worker handoffs recorded")
	}
	finalOwnerCams := camerasOf(c.Coordinator.Assignment(), owner)
	found := false
	for _, cc := range finalOwnerCams {
		if cc == 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("final owner %v does not own camera 8 (owns %v)", owner, finalOwnerCams)
	}
	// Vision graph learned transits along the corridor.
	if c.Coordinator.Network().EdgeCount() == 0 {
		t.Error("no vision-graph edges after tracking")
	}
	if err := c.Coordinator.StopTrack(ctx, trackID); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c.Coordinator.TrackInfo(trackID); ok {
		t.Error("track still present after stop")
	}
}

func TestTrackingScopedVsBroadcastMessageCost(t *testing.T) {
	// The R3 hypothesis in miniature: vision-graph-scoped handoff sends far
	// fewer prime messages than broadcast on a corridor network.
	run := func(broadcast bool) (primes int64, handoffs int) {
		opts := Options{LostAfter: 2 * time.Second, PrimeTTL: time.Minute, BroadcastHandoff: broadcast}
		c, err := NewLocalCluster(8, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		if err := c.Coordinator.AddCameras(ctx, corridorCams(16, 100), 60); err != nil {
			t.Fatal(err)
		}
		feat := vision.NewRandomFeature(newRand(9), 32)
		ingestDirect(t, c, wire.Observation{ObsID: 1, Camera: 1, Time: simT0, Pos: geo.Pt(30, 50), Feature: feat})
		trackID, _, err := c.Coordinator.StartTrack(ctx, 1, feat, simT0)
		if err != nil {
			t.Fatal(err)
		}
		walkTarget(t, c, feat, geo.Pt(30, 50), geo.Pt(1570, 50), 154, simT0.Add(time.Second), time.Second, 100)
		snap := c.Coordinator.Metrics().Snapshot()
		_, _, h, _ := c.Coordinator.TrackInfo(trackID)
		return snap.Counters["handoff.primes_sent"], h
	}
	scopedPrimes, scopedHandoffs := run(false)
	broadcastPrimes, broadcastHandoffs := run(true)
	if scopedHandoffs == 0 || broadcastHandoffs == 0 {
		t.Fatalf("tracking broken: scoped=%d broadcast=%d handoffs", scopedHandoffs, broadcastHandoffs)
	}
	if scopedPrimes == 0 || broadcastPrimes == 0 {
		t.Fatalf("no primes recorded: scoped=%d broadcast=%d", scopedPrimes, broadcastPrimes)
	}
	// Broadcast primes all 8 workers per handoff; scoped primes the 1-2
	// owners of the graph neighbors.
	if broadcastPrimes < 2*scopedPrimes {
		t.Errorf("broadcast (%d primes) should cost well over 2× scoped (%d primes)",
			broadcastPrimes, scopedPrimes)
	}
}

func TestTrackStartUnknownCamera(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, corridorCams(4, 100), 60); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Coordinator.StartTrack(ctx, 99, []float32{1}, simT0); err == nil {
		t.Error("track on unknown camera accepted")
	}
	if err := c.Coordinator.StopTrack(ctx, 12345); err == nil {
		t.Error("stop of unknown track succeeded")
	}
}

func TestWorkerFailureRecovery(t *testing.T) {
	opts := Options{HeartbeatTimeout: 50 * time.Millisecond}
	c, faulty := newFaultyTestCluster(t, 3, opts)
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	// Ingest a record per camera.
	var obs []wire.Observation
	for i, ci := range gridCams(world1, 3) {
		obs = append(obs, obsAt(uint64(i+1), ci.ID, ci.Pos, simT0.Add(time.Second), nil))
	}
	ingestDirect(t, c, obs...)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	recs, _ := c.Coordinator.Range(ctx, world1, window, 0)
	if len(recs) != 9 {
		t.Fatalf("pre-failure range = %d", len(recs))
	}
	epochBefore := c.Coordinator.Epoch()

	// Kill worker w01: partition its address and let heartbeats lapse. The other
	// workers keep heartbeating.
	dead := c.Workers[0]
	faulty.SetPartitioned(dead.Addr(), true)
	deadline := time.Now().Add(2 * time.Second)
	var died []cluster.Member
	for time.Now().Before(deadline) {
		for _, w := range c.Workers[1:] {
			w.SendHeartbeat(ctx) //nolint:errcheck // best-effort in test loop
		}
		died = c.Coordinator.Sweep(ctx, time.Now())
		if len(died) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(died) != 1 || died[0].Node != dead.ID() {
		t.Fatalf("sweep reported %+v", died)
	}
	if got := c.Coordinator.Epoch(); got <= epochBefore {
		t.Error("epoch not bumped by recovery")
	}
	// All cameras now route to the survivors.
	a := c.Coordinator.Assignment()
	if len(a) != 9 {
		t.Fatalf("post-failure assignment has %d cameras", len(a))
	}
	for cam, node := range a {
		if node == dead.ID() {
			t.Errorf("camera %d still assigned to dead worker", cam)
		}
	}
	// Historical data on the dead worker is lost (documented trade-off); the
	// survivors' data remains reachable.
	recs, _ = c.Coordinator.Range(ctx, world1, window, 0)
	if len(recs) == 0 || len(recs) >= 9 {
		t.Errorf("post-failure range = %d records, want partial (1..8)", len(recs))
	}
	// New ingest on reassigned cameras succeeds everywhere.
	var obs2 []wire.Observation
	for i, ci := range gridCams(world1, 3) {
		obs2 = append(obs2, obsAt(uint64(100+i), ci.ID, ci.Pos, simT0.Add(2*time.Second), nil))
	}
	if got := ingestDirect(t, c, obs2...); got != 9 {
		t.Errorf("post-recovery ingest accepted %d, want 9", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, c,
		obsAt(1, 1, geo.Pt(250, 250), simT0, nil),
		obsAt(2, 4, geo.Pt(750, 750), simT0, nil),
	)
	stats := c.Coordinator.WorkerStats(ctx)
	if len(stats) != 2 {
		t.Fatalf("stats from %d workers", len(stats))
	}
	var total int64
	for _, s := range stats {
		total += s.Counters["ingest.accepted"]
	}
	if total != 2 {
		t.Errorf("aggregated ingest.accepted = %d", total)
	}
}

func TestReidSearchAcrossLog(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	rng := newRand(11)
	target := vision.NewRandomFeature(rng, 32)
	other := vision.NewRandomFeature(rng, 32)
	ingestDirect(t, c,
		obsAt(1, 1, geo.Pt(100, 100), simT0.Add(time.Second), target),
		obsAt(2, 4, geo.Pt(900, 900), simT0.Add(2*time.Second), target.Perturb(rng, 0.05)),
		obsAt(3, 1, geo.Pt(200, 100), simT0.Add(time.Second), other),
	)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	var hits []wire.ResultRecord
	for _, w := range c.Workers {
		hits = append(hits, w.ReidSearch(target, window, 0.8)...)
	}
	if len(hits) != 2 {
		t.Fatalf("reid found %d observations, want 2: %+v", len(hits), hits)
	}
	seen := map[uint64]bool{}
	for _, h := range hits {
		seen[h.ObsID] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("reid hits = %+v", hits)
	}
}

func TestTrackTrajectoryStitching(t *testing.T) {
	opts := Options{LostAfter: 2 * time.Second, PrimeTTL: time.Minute}
	c := newTestCluster(t, 4, opts)
	if err := c.Coordinator.AddCameras(ctx, corridorCams(8, 100), 60); err != nil {
		t.Fatal(err)
	}
	feat := vision.NewRandomFeature(newRand(61), 32)
	ingestDirect(t, c, wire.Observation{ObsID: 1, Camera: 1, Time: simT0, Pos: geo.Pt(30, 50), Feature: feat})
	trackID, ch, err := c.Coordinator.StartTrack(ctx, 1, feat, simT0)
	if err != nil {
		t.Fatal(err)
	}
	walkTarget(t, c, feat, geo.Pt(30, 50), geo.Pt(770, 50), 74, simT0.Add(time.Second), time.Second, 100)
	// The track's channel carries every sighting its successive owners
	// pushed: the stitched cross-camera trajectory needs no coordinator copy.
	var tr geo.Trajectory
	for len(ch) > 0 {
		if u := <-ch; !u.Lost {
			tr.Append(u.Time, u.Pos)
		}
	}
	// ~75 walk steps produce ~75 sightings, minus the handoff gaps where the
	// target crosses camera boundaries unseen by any resident tracker.
	if tr.Len() < 40 {
		t.Fatalf("trajectory has %d samples, want >= 40", tr.Len())
	}
	// Time-ordered and spatially monotone left-to-right overall.
	for i := 1; i < tr.Len(); i++ {
		if tr.Points[i].T.Before(tr.Points[i-1].T) {
			t.Fatal("trajectory out of time order")
		}
	}
	p0, _ := tr.At(tr.Points[0].T)
	p1, _ := tr.At(tr.Points[tr.Len()-1].T)
	if p1.X-p0.X < 600 {
		t.Errorf("trajectory spans %.0f m eastward, want >= 600", p1.X-p0.X)
	}
	// Stopping the track closes its channel.
	if err := c.Coordinator.StopTrack(ctx, trackID); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			t.Fatal("track channel open after StopTrack")
		}
	}
}
