package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// TestIngesterConcurrentUse is the regression test for the ingester's route
// cache: epoch/routes were unsynchronized, so concurrent producers (or a
// producer racing a rebalance-triggered refresh) tripped the race detector
// on the old code shape. It drives parallel producers against concurrent
// reassignments and requires every observation to be accepted exactly once.
func TestIngesterConcurrentUse(t *testing.T) {
	c := newTestCluster(t, 4, Options{LostAfter: time.Hour})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(c.Coordinator, c.Transport)
	defer ing.Close()

	const producers = 4
	const frames = 25
	const perFrame = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				dets := make([]vision.Detection, 0, perFrame)
				for i := 0; i < perFrame; i++ {
					cam := uint32(1 + (p*frames*perFrame+f*perFrame+i)%16)
					dets = append(dets, vision.Detection{
						ObsID:  uint64(p*1000000 + f*1000 + i + 1),
						Camera: camera.ID(cam),
						Time:   simT0.Add(time.Duration(f) * time.Second),
						Pos:    geo.Pt(float64(10+f), float64(10+p)),
					})
				}
				n, err := ing.IngestDetections(ctx, dets)
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				mu.Lock()
				accepted += n
				mu.Unlock()
			}
		}(p)
	}
	// Concurrent rebalances force route-cache refreshes mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := c.Coordinator.Reassign(ctx); err != nil {
				t.Errorf("reassign: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	want := producers * frames * perFrame
	if accepted != want {
		t.Fatalf("accepted %d observations, want %d", accepted, want)
	}
	total := 0
	for _, w := range c.Workers {
		total += w.Store().Len()
	}
	if total != want {
		t.Fatalf("stores hold %d records, want %d (lost or duplicated under concurrency)", total, want)
	}
}

// TestIngestSequencedReplayIdempotent proves the worker's at-most-once
// application of sequenced batches: a re-delivered sequence is acknowledged
// from the original outcome without touching the index, and a sequence older
// than the cursor is acknowledged empty.
func TestIngestSequencedReplayIdempotent(t *testing.T) {
	c := newTestCluster(t, 1, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	w := c.Workers[0]
	batch := &wire.IngestBatch{
		Source: "ingest-test",
		Seq:    1,
		Observations: []wire.Observation{
			obsAt(1, 1, geo.Pt(100, 100), simT0, nil),
			obsAt(2, 2, geo.Pt(800, 800), simT0, nil),
		},
	}
	resp, err := c.Transport.Call(ctx, w.Addr(), batch)
	if err != nil {
		t.Fatal(err)
	}
	first := *resp.(*wire.IngestAck)
	if first.Accepted != 2 || first.Replayed {
		t.Fatalf("first delivery ack = %+v, want 2 accepted, not replayed", first)
	}
	if w.Store().Len() != 2 {
		t.Fatalf("store holds %d records, want 2", w.Store().Len())
	}

	// Exact re-delivery: the original counts come back flagged as a replay,
	// and nothing is re-applied.
	resp, err = c.Transport.Call(ctx, w.Addr(), batch)
	if err != nil {
		t.Fatal(err)
	}
	replay := *resp.(*wire.IngestAck)
	if !replay.Replayed || replay.Accepted != 2 {
		t.Fatalf("replay ack = %+v, want replayed with original counts", replay)
	}
	if w.Store().Len() != 2 {
		t.Fatalf("replay re-applied: store holds %d records, want 2", w.Store().Len())
	}

	// Advance the cursor, then deliver an older sequence: acknowledged as a
	// replay with empty counts, index untouched.
	next := &wire.IngestBatch{
		Source:       "ingest-test",
		Seq:          2,
		Observations: []wire.Observation{obsAt(3, 1, geo.Pt(150, 150), simT0.Add(time.Second), nil)},
	}
	if _, err := c.Transport.Call(ctx, w.Addr(), next); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Transport.Call(ctx, w.Addr(), batch)
	if err != nil {
		t.Fatal(err)
	}
	stale := *resp.(*wire.IngestAck)
	if !stale.Replayed || stale.Accepted != 0 {
		t.Fatalf("stale ack = %+v, want empty replay ack", stale)
	}
	if w.Store().Len() != 3 {
		t.Fatalf("store holds %d records, want 3", w.Store().Len())
	}

	// Unsequenced batches keep plain at-least-once semantics: a second
	// identical delivery is applied again (same ObsID, so the index keeps
	// both records — dedup is the sequenced path's job).
	plain := &wire.IngestBatch{Observations: []wire.Observation{obsAt(9, 1, geo.Pt(120, 120), simT0, nil)}}
	for i := 0; i < 2; i++ {
		resp, err = c.Transport.Call(ctx, w.Addr(), plain)
		if err != nil {
			t.Fatal(err)
		}
		if ack := resp.(*wire.IngestAck); ack.Accepted != 1 || ack.Replayed {
			t.Fatalf("unsequenced delivery %d ack = %+v", i, ack)
		}
	}
}

// TestIngestAckSeparatesReplication checks the ack accounting contract the
// coalesced pipeline sums over: Accepted counts primary inserts only,
// Replicated counts standby copies, and the two never overlap.
func TestIngestAckSeparatesReplication(t *testing.T) {
	c := newTestCluster(t, 2, Options{Replicas: 1})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	a := c.Coordinator.Assignment()
	// Find a camera and the worker holding it only as a standby copy.
	var cam uint32
	var standby *Worker
	for id, owner := range a {
		for _, w := range c.Workers {
			if w.ID() != owner {
				cam, standby = id, w
			}
		}
		if standby != nil {
			break
		}
	}
	batch := &wire.IngestBatch{Observations: []wire.Observation{obsAt(1, cam, geo.Pt(500, 500), simT0, nil)}}
	resp, err := c.Transport.Call(ctx, standby.Addr(), batch)
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.IngestAck)
	if ack.Accepted != 0 || ack.Replicated != 1 || ack.Rejected != 0 {
		t.Fatalf("standby ack = %+v, want 0 accepted / 1 replicated", ack)
	}
	owner := c.Worker(a[cam])
	resp, err = c.Transport.Call(ctx, owner.Addr(), batch)
	if err != nil {
		t.Fatal(err)
	}
	ack = resp.(*wire.IngestAck)
	if ack.Accepted != 1 || ack.Replicated != 0 {
		t.Fatalf("primary ack = %+v, want 1 accepted / 0 replicated", ack)
	}
}

const (
	claimFrame = 10
	claimObs   = claimFrame*40 + 1
	claimCam   = 6
	claimTrack = 777
)

// recycleFrames is the stream the recycling tests replay: frames of 40
// featured detections over the 16 cameras of gridCams(world1, 4), 20
// objects' features, 100 ms apart. The detection at claimObs, in frame
// claimFrame on camera claimCam, carries claimFeat, which no other
// detection does.
func recycleFrames(frames int, claimFeat vision.Feature) [][]vision.Detection {
	const perFrame, objects = 40, 20
	rng := newRand(11)
	feats := make([]vision.Feature, objects)
	for i := range feats {
		feats[i] = vision.NewRandomFeature(rng, 32)
	}
	out := make([][]vision.Detection, frames)
	obsID := uint64(0)
	for f := range out {
		at := simT0.Add(time.Duration(f) * 100 * time.Millisecond)
		for i := 0; i < perFrame; i++ {
			obsID++
			d := vision.Detection{
				ObsID:   obsID,
				Camera:  camera.ID(1 + rng.Intn(16)),
				Time:    at.Add(time.Duration(i) * time.Millisecond),
				Pos:     geo.Pt(rng.Float64()*world1.Width(), rng.Float64()*world1.Height()),
				Feature: feats[rng.Intn(objects)],
			}
			if obsID == claimObs {
				d.Camera, d.Feature = claimCam, claimFeat
			}
			out[f] = append(out[f], d)
		}
	}
	return out
}

// newTCPTestCluster is newTestCluster over loopback TCP: the coordinator and
// n workers serve on one TCP transport, at ephemeral ports.
func newTCPTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	tr := cluster.NewTCP()
	coord := NewCoordinator("127.0.0.1:0", tr, nil, opts)
	if err := coord.Start(); err != nil {
		tr.Close()
		t.Fatal(err)
	}
	c := &Cluster{Coordinator: coord, Transport: tr}
	t.Cleanup(c.Stop)
	for i := 0; i < n; i++ {
		w := NewWorker(wire.NodeID(fmt.Sprintf("w%02d", i+1)), "127.0.0.1:0", coord.Addr(), tr, opts)
		if err := w.Start(ctx); err != nil {
			t.Fatal(err)
		}
		c.Workers = append(c.Workers, w)
	}
	return c
}

// TestIngesterRecycledGroupsSafe: the Ingester reuses each coalesce group
// once its batch is acknowledged, and that reuse reaches no worker state.
// Over the zero-copy and the wire-format InProc, a Faulty link delivering
// every call twice, and loopback TCP, synchronous and pipelined ingest leave
// every worker's index equal to a reference ingest whose groups are never
// reused; and a track claimed from a recycled group still holds its
// detection's feature as its template 100 frames later, after its group has
// been cleared and refilled many times.
func TestIngesterRecycledGroupsSafe(t *testing.T) {
	opts := Options{Replicas: 1, LostAfter: time.Hour}
	claimFeat := vision.NewRandomFeature(newRand(12), 32)
	frames := recycleFrames(claimFrame+1+100, claimFeat)
	total := 0
	for _, f := range frames {
		total += len(f)
	}

	ref := newTestCluster(t, 4, opts)
	if err := ref.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := (serialIngester{ref.Coordinator, ref.Transport}).IngestDetections(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	want := map[wire.NodeID]string{}
	for _, w := range ref.Workers {
		want[w.ID()] = dumpStore(w)
	}

	transports := []struct {
		name string
		make func(t *testing.T) *Cluster
	}{
		{"inproc", func(t *testing.T) *Cluster { return newTestCluster(t, 4, opts) }},
		{"inproc-wire", func(t *testing.T) *Cluster {
			c, err := NewLocalClusterOver(cluster.NewInProc(cluster.WithWireFormat()), 4, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			return c
		}},
		{"faulty-duplicate", func(t *testing.T) *Cluster {
			faulty := cluster.NewFaulty(cluster.NewInProc(), 5)
			c, err := NewLocalClusterOver(faulty, 4, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			for _, w := range c.Workers {
				faulty.SetProgram(w.Addr(), cluster.FaultProgram{Duplicate: 1})
			}
			return c
		}},
		{"tcp", func(t *testing.T) *Cluster {
			if testing.Short() {
				t.Skip("loopback TCP skipped in -short mode")
			}
			return newTCPTestCluster(t, 4, opts)
		}},
	}
	for _, tc := range transports {
		for _, async := range []bool{false, true} {
			name := tc.name + "/sync"
			if async {
				name = tc.name + "/async"
			}
			t.Run(name, func(t *testing.T) {
				c := tc.make(t)
				if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
					t.Fatal(err)
				}
				ownerAddr, _ := c.Coordinator.RouteFor(claimCam)
				var owner *Worker
				for _, w := range c.Workers {
					if w.Addr() == ownerAddr {
						owner = w
					}
				}
				if _, err := c.Transport.Call(ctx, owner.Addr(), &wire.TrackPrime{
					TrackID: claimTrack, Cameras: []uint32{claimCam}, Feature: claimFeat, Expires: simT0.Add(time.Hour),
				}); err != nil {
					t.Fatal(err)
				}
				ing := NewIngester(c.Coordinator, c.Transport)
				defer ing.Close()
				accepted := 0
				for i, f := range frames {
					if i == claimFrame {
						if async {
							n, err := ing.Flush()
							if err != nil {
								t.Fatal(err)
							}
							accepted += n
						}
						ing.spareMu.Lock()
						spare := len(ing.spares)
						ing.spareMu.Unlock()
						if spare == 0 {
							t.Fatal("vacuous: no group was spare when the claiming frame was coalesced")
						}
					}
					if async {
						ing.IngestDetectionsAsync(ctx, f)
						continue
					}
					n, err := ing.IngestDetections(ctx, f)
					if err != nil {
						t.Fatal(err)
					}
					accepted += n
				}
				if async {
					n, err := ing.Flush()
					if err != nil {
						t.Fatal(err)
					}
					accepted += n
				}
				if accepted != total {
					t.Fatalf("accepted %d of %d detections", accepted, total)
				}
				for _, w := range c.Workers {
					if got := dumpStore(w); got != want[w.ID()] {
						t.Fatalf("worker %s: index differs from the reference ingest", w.ID())
					}
				}
				owner.evalMu.Lock()
				tr := owner.tracks[claimTrack]
				var template vision.Feature
				if tr != nil {
					template = slices.Clone(tr.feature)
				}
				owner.evalMu.Unlock()
				if tr == nil {
					t.Fatalf("no detection claimed track %d on %s", claimTrack, owner.ID())
				}
				if !slices.Equal(template, claimFeat) {
					t.Fatalf("claimed track's template changed after 100 more frames:\n%v\nwant %v", template, claimFeat)
				}
			})
		}
	}
}

// TestIngesterSpareGroupsBounded: acknowledged groups past maxSpareGroups
// are dropped, not kept, and every spare comes back empty with its
// observations cleared, so no spare pins a feature vector.
func TestIngesterSpareGroupsBounded(t *testing.T) {
	ing := NewIngester(nil, nil)
	feat := []float32{1, 2, 3}
	var groups [][]wire.Observation
	for i := 0; i < 2*maxSpareGroups; i++ {
		g := make([]wire.Observation, 4)
		for j := range g {
			g[j] = wire.Observation{ObsID: uint64(j + 1), Feature: feat}
		}
		groups = append(groups, g)
		ing.recycleGroup(g)
	}
	if n := len(ing.spares); n != maxSpareGroups {
		t.Fatalf("%d spare groups after recycling %d, want the bound %d", n, len(groups), maxSpareGroups)
	}
	for _, g := range groups {
		for j := range g {
			if g[j].Feature != nil || g[j].ObsID != 0 {
				t.Fatalf("a recycled group keeps observation %+v", g[j])
			}
		}
	}
	for i := 0; i < maxSpareGroups; i++ {
		if g := ing.spareGroup(); len(g) != 0 || cap(g) != 4 {
			t.Fatalf("spare %d has len %d cap %d, want an empty group of cap 4", i, len(g), cap(g))
		}
	}
	if g := ing.spareGroup(); g != nil {
		t.Fatalf("spare list drained, yet spareGroup returned cap %d", cap(g))
	}
}
