package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// proxyBatch builds n observations with consecutive IDs from first,
// alternating over the given cameras.
func proxyBatch(first uint64, n int, cams []wire.CameraInfo, at time.Time) *wire.IngestBatch {
	b := &wire.IngestBatch{FrameTime: at}
	for i := 0; i < n; i++ {
		cam := cams[i%len(cams)]
		b.Observations = append(b.Observations, obsAt(first+uint64(i), cam.ID, cam.Pos, at, nil))
	}
	return b
}

// storedOnce requires the cluster's complete Range answer to hold exactly
// the observation IDs [1, want], each once.
func storedOnce(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	recs, meta, err := rangeDecoded(c, world1, wire.TimeWindow{From: simT0, To: simT0.Add(24 * time.Hour)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Answered != meta.Asked {
		t.Fatalf("answer incomplete: %d of %d workers", meta.Answered, meta.Asked)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.ObsID] {
			t.Fatalf("observation %d stored twice", r.ObsID)
		}
		seen[r.ObsID] = true
	}
	if len(recs) != want {
		t.Fatalf("range answer holds %d records, want exactly %d", len(recs), want)
	}
}

// TestProxyIngestExactlyOnce: every worker link duplicates every call, and a
// batch sent through the coordinator's ingest proxy still lands once. The
// proxy's forwards ride the coordinator's sequenced lanes, so each worker
// acknowledges the duplicate as a replay instead of applying it again.
func TestProxyIngestExactlyOnce(t *testing.T) {
	faulty := cluster.NewFaulty(cluster.NewInProc(), 3)
	c, err := NewLocalClusterOver(faulty, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cams := gridCams(world1, 2)[:2]
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	if owners := c.Coordinator.Assignment(); owners[cams[0].ID] == owners[cams[1].ID] {
		t.Fatalf("both cameras on %s; want one per worker", owners[cams[0].ID])
	}
	for _, w := range c.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{Duplicate: 1})
	}
	resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(1, 10, cams, simT0))
	if err != nil {
		t.Fatal(err)
	}
	if ack := resp.(*wire.IngestAck); ack.Accepted != 10 || ack.Rejected != 0 {
		t.Fatalf("ack = %+v, want 10 accepted", ack)
	}
	if faulty.Injected().Duplicated == 0 {
		t.Fatal("no duplicate was delivered; the test is vacuous")
	}
	stored := 0
	for _, w := range c.Workers {
		stored += w.Store().Len()
	}
	if stored != 10 {
		t.Fatalf("stores hold %d records, want exactly 10", stored)
	}
	storedOnce(t, c.Coordinator, 10)
}

// TestProxyIngestConcurrentClients: concurrent clients' frames spread over
// the proxy's lanes, so a worker has more than one proxied batch in flight,
// and every duplicated forward is still applied once.
func TestProxyIngestConcurrentClients(t *testing.T) {
	faulty := cluster.NewFaulty(cluster.NewInProc(), 4)
	c, err := NewLocalClusterOver(faulty, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cams := gridCams(world1, 2)
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{Duplicate: 1})
	}
	const clients, batches, perBatch = 4, 25, 8
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				first := uint64((cl*batches+b)*perBatch + 1)
				resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(first, perBatch, cams, simT0))
				if err != nil {
					t.Error(err)
					return
				}
				if ack := resp.(*wire.IngestAck); ack.Accepted != perBatch {
					t.Errorf("ack = %+v, want %d accepted", ack, perBatch)
				}
			}
		}(cl)
	}
	wg.Wait()
	storedOnce(t, c.Coordinator, clients*batches*perBatch)
	for _, w := range c.Workers {
		w.mu.Lock()
		sources := len(w.ingestSeqs)
		w.mu.Unlock()
		if sources < 2 {
			t.Errorf("worker %s saw %d sequenced sources, want the proxy's lanes", w.ID(), sources)
		}
	}
}

// TestProxyIngestUnroutedCameras: the proxy routes each batch by the
// coordinator's current route table. A batch naming only unknown cameras
// answers not-found, a partly routable one is accepted with the rest counted
// as rejected, thousands of unknown cameras publish no table, and once a
// Reassign publishes a table that assigns them, the next batch reaches their
// owners.
func TestProxyIngestUnroutedCameras(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	cams := gridCams(world1, 2)
	if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
		t.Fatal(err)
	}
	unknownCams := func(first, n int) []wire.CameraInfo {
		out := make([]wire.CameraInfo, n)
		for i := range out {
			out[i] = wire.CameraInfo{ID: uint32(first + i), Pos: cams[0].Pos, Range: 100, HalfFOV: 3.1}
		}
		return out
	}
	call := func(b *wire.IngestBatch) (*wire.IngestAck, error) {
		resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), b)
		if err != nil {
			return nil, err
		}
		return resp.(*wire.IngestAck), nil
	}

	table := c.Coordinator.table.Load()
	const batches, perBatch = 20, 250
	for b := 0; b < batches; b++ {
		_, err := call(proxyBatch(uint64(1000+b*perBatch), perBatch, unknownCams(1000+b*perBatch, perBatch), simT0))
		var re *cluster.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeNotFound {
			t.Fatalf("unroutable batch %d: err %v, want not-found", b, err)
		}
	}
	if c.Coordinator.table.Load() != table {
		t.Fatalf("%d unknown cameras published a route table", batches*perBatch)
	}

	mixed := append(append([]wire.CameraInfo(nil), cams[:2]...), unknownCams(1000, 2)...)
	ack, err := call(proxyBatch(1, 8, mixed, simT0))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 4 || ack.Rejected != 4 {
		t.Fatalf("partly routable batch: %+v, want 4 accepted and 4 rejected", ack)
	}

	epoch := c.Coordinator.Epoch()
	added := unknownCams(1000, 2)
	if err := c.Coordinator.AddCameras(ctx, added, 50); err != nil {
		t.Fatal(err)
	}
	if c.Coordinator.Epoch() == epoch {
		t.Fatal("AddCameras did not reassign")
	}
	if ack, err = call(proxyBatch(100, 8, added, simT0)); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 8 {
		t.Fatalf("batch after the reassign: %+v, want 8 accepted", ack)
	}
}

// TestProxyIngestAcrossStop: proxy handlers still enqueueing while
// Coordinator.Stop closes the ingest lanes (the in-process server does not
// wait for in-flight handlers) each get an ack or an error — never a send on
// a closed lane.
func TestProxyIngestAcrossStop(t *testing.T) {
	const (
		rounds    = 500
		producers = 8
		batches   = 50
	)
	cams := gridCams(world1, 2)
	for round := 0; round < rounds; round++ {
		c := newTestCluster(t, 2, Options{})
		if err := c.Coordinator.AddCameras(ctx, cams, 50); err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			acked   = make(chan struct{})
			ackOnce sync.Once
		)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					first := uint64((p*batches + b) * 4)
					resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), proxyBatch(first+1, 4, cams, simT0))
					if err != nil {
						continue // the coordinator stopped under this call
					}
					switch resp.(type) {
					case *wire.IngestAck:
						ackOnce.Do(func() { close(acked) })
					case *wire.Error:
					default:
						t.Errorf("proxied ingest answered %T", resp)
					}
				}
			}(p)
		}
		// Stop once the lanes carry traffic, so producers are mid-enqueue.
		select {
		case <-acked:
		case <-time.After(time.Second):
		}
		c.Coordinator.Stop()
		wg.Wait()
		c.Stop()
	}
}

// TestProxyIngestAcrossCoordinatorRestart: a replacement coordinator at the
// same address, with the same CoordinatorID, proxies into workers that kept
// the old coordinator's delivery cursors. Its lanes must deliver under a
// fresh Source, or the workers would take its first batches for replays of
// the old ones and drop them.
func TestProxyIngestAcrossCoordinatorRestart(t *testing.T) {
	faulty := cluster.NewFaulty(cluster.NewInProc(), 5)
	opts := Options{CoordinatorID: "c1"}
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
	const before, after, perBatch = 20, 10, 8
	next := uint64(1)
	send := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			at := simT0.Add(time.Duration(next) * time.Millisecond)
			resp, err := cl.Transport.Call(ctx, cl.Coordinator.Addr(), proxyBatch(next, perBatch, cams, at))
			if err != nil {
				t.Fatalf("%s batch %d: %v", phase, i, err)
			}
			if ack, ok := resp.(*wire.IngestAck); !ok || ack.Accepted != perBatch {
				t.Fatalf("%s batch %d: ack %+v, want %d accepted", phase, i, resp, perBatch)
			}
			next += perBatch
		}
	}
	send("before restart", before)

	cl.Coordinator.Stop()
	nc := NewCoordinator(cl.Coordinator.Addr(), faulty, nil, opts)
	if err := nc.Start(); err != nil {
		t.Fatalf("restart coordinator: %v", err)
	}
	cl.Coordinator = nc
	for _, w := range cl.Workers {
		if err := w.SendHeartbeat(ctx); err != nil {
			t.Fatalf("post-restart heartbeat: %v", err)
		}
	}
	if err := nc.AddCameras(ctx, cams, 50); err != nil {
		t.Fatalf("re-register cameras: %v", err)
	}
	send("after restart", after)

	for _, w := range cl.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{})
	}
	storedOnce(t, nc, (before+after)*perBatch)
	if faulty.Injected().Duplicated == 0 {
		t.Fatal("no duplicate was delivered; dedup was not exercised")
	}
}
