package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

// echoHandler answers CountQuery with CountResult{Count: QueryID} and errors
// on Error payloads — enough surface to test both transports uniformly.
func echoHandler(_ context.Context, _ string, req any) (any, error) {
	switch m := req.(type) {
	case *wire.CountQuery:
		return &wire.CountResult{QueryID: m.QueryID, Count: int(m.QueryID)}, nil
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{Epoch: m.Seq}, nil
	case *wire.Error:
		return nil, errors.New("boom: " + m.Message)
	}
	return nil, fmt.Errorf("unexpected %T", req)
}

func transportsUnderTest(t *testing.T) map[string]func() (Transport, string) {
	return map[string]func() (Transport, string){
		"inproc": func() (Transport, string) {
			return NewInProc(), "nodeA"
		},
		"inproc-wire": func() (Transport, string) {
			return NewInProc(WithWireFormat()), "nodeA"
		},
		"tcp": func() (Transport, string) {
			return NewTCP(), "127.0.0.1:0"
		},
	}
}

func TestTransportCallRoundTrip(t *testing.T) {
	for name, mk := range transportsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			defer tr.Close()
			srv, err := tr.Serve(addr, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := tr.Call(ctx, srv.Addr(), &wire.CountQuery{QueryID: 7, Rect: geo.RectOf(0, 0, 1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			cr, ok := resp.(*wire.CountResult)
			if !ok || cr.Count != 7 {
				t.Fatalf("resp = %#v", resp)
			}
			if s := tr.Stats(); s.Calls != 1 || s.Errors != 0 {
				t.Errorf("stats = %+v", s)
			}
		})
	}
}

func TestTransportHandlerError(t *testing.T) {
	for name, mk := range transportsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			defer tr.Close()
			srv, err := tr.Serve(addr, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err = tr.Call(ctx, srv.Addr(), &wire.Error{Message: "x"})
			if err == nil {
				t.Fatal("handler error not propagated")
			}
		})
	}
}

// TestTransportCallExpiredContext: a call under an already cancelled or
// expired context fails with the context's error on every transport; in
// process it fails before the handler runs. Over TCP the request is sent,
// so its handler holds the reply until the test ends: the caller must not
// wait for it.
func TestTransportCallExpiredContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for name, mk := range transportsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			defer tr.Close()
			var (
				mu    sync.Mutex
				calls int
			)
			release := make(chan struct{})
			_, inproc := tr.(*InProc)
			srv, err := tr.Serve(addr, func(ctx context.Context, from string, req any) (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				if !inproc {
					<-release
				}
				return echoHandler(ctx, from, req)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			defer close(release) // before Close, which waits for the handlers
			for _, c := range []struct {
				ctx  context.Context
				want error
			}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}} {
				if _, err := tr.Call(c.ctx, srv.Addr(), &wire.CountQuery{QueryID: 1}); !errors.Is(err, c.want) {
					t.Errorf("call error = %v, want %v", err, c.want)
				}
			}
			if s := tr.Stats(); s.Calls != 2 || s.Errors != 2 {
				t.Errorf("stats = %+v, want 2 calls, 2 errors", s)
			}
			if inproc {
				mu.Lock()
				defer mu.Unlock()
				if calls != 0 {
					t.Errorf("handler ran %d times under a dead context", calls)
				}
			}
		})
	}
}

func TestTransportUnreachable(t *testing.T) {
	for name, mk := range transportsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			tr, _ := mk()
			defer tr.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			badAddr := "nowhere"
			if name == "tcp" {
				badAddr = "127.0.0.1:1" // reserved port, nothing listens
			}
			if _, err := tr.Call(ctx, badAddr, &wire.Heartbeat{Node: "x"}); err == nil {
				t.Fatal("call to unreachable address succeeded")
			}
			if s := tr.Stats(); s.Errors == 0 {
				t.Error("error not counted")
			}
		})
	}
}

func TestTransportConcurrentCalls(t *testing.T) {
	for name, mk := range transportsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			defer tr.Close()
			srv, err := tr.Serve(addr, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var wg sync.WaitGroup
			errCh := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						id := uint64(g*1000 + i)
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						resp, err := tr.Call(ctx, srv.Addr(), &wire.CountQuery{QueryID: id})
						cancel()
						if err != nil {
							errCh <- err
							return
						}
						if cr := resp.(*wire.CountResult); cr.QueryID != id || cr.Count != int(id) {
							errCh <- fmt.Errorf("mismatched response: sent %d got %+v", id, cr)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	block := make(chan struct{})
	srv, err := tr.Serve("127.0.0.1:0", func(ctx context.Context, _ string, req any) (any, error) {
		<-block
		return &wire.HeartbeatAck{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := tr.Call(ctx, srv.Addr(), &wire.Heartbeat{Node: "w"})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Calls after close fail.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := tr.Call(ctx, srv.Addr(), &wire.Heartbeat{Node: "w"}); err == nil {
		t.Error("call to closed server succeeded")
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	if _, err := tr.Serve("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Serve("a", echoHandler); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestInProcWireFormatValueSemantics(t *testing.T) {
	tr := NewInProc(WithWireFormat())
	defer tr.Close()
	var received *wire.RangeQuery
	_, err := tr.Serve("w", func(_ context.Context, _ string, req any) (any, error) {
		received = req.(*wire.RangeQuery)
		return &wire.RangeResult{QueryID: received.QueryID}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := &wire.RangeQuery{QueryID: 5, Rect: geo.RectOf(0, 0, 1, 1)}
	if _, err := tr.Call(context.Background(), "w", sent); err != nil {
		t.Fatal(err)
	}
	if received == sent {
		t.Error("wire-format transport shared the request pointer")
	}
	if s := tr.Stats(); s.BytesOut == 0 || s.BytesIn == 0 {
		t.Errorf("wire-format transport did not count bytes: %+v", s)
	}
}

// TestTransportCountsPayloadBytes: BytesOut and BytesIn count the encoded
// payload bytes of each request sent and each response received — frame
// headers and their trace/QoS tags excluded — identically on the wire-format
// in-proc transport and over loopback TCP.
func TestTransportCountsPayloadBytes(t *testing.T) {
	req := &wire.CountQuery{QueryID: 7, Rect: geo.RectOf(0, 0, 1, 1)}
	resp, _ := echoHandler(context.Background(), "", req)
	wantOut, err := wire.Marshal(wire.KindCountQuery, req)
	if err != nil {
		t.Fatal(err)
	}
	wantIn, err := wire.Marshal(wire.KindCountResult, resp)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() (Transport, string){
		"inproc-wire": func() (Transport, string) { return NewInProc(WithWireFormat()), "nodeA" },
		"tcp":         func() (Transport, string) { return NewTCP(), "127.0.0.1:0" },
	} {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			defer tr.Close()
			srv, err := tr.Serve(addr, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Two calls, the second traced and QoS-tagged: the tags must
			// not count as payload.
			tagged := WithTenant(WithPriority(WithTrace(ctx, 0xfeed), PriorityBackground), "acme")
			for _, c := range []context.Context{ctx, tagged} {
				if _, err := tr.Call(c, srv.Addr(), req); err != nil {
					t.Fatal(err)
				}
			}
			s := tr.Stats()
			if s.BytesOut != 2*int64(len(wantOut)) || s.BytesIn != 2*int64(len(wantIn)) {
				t.Fatalf("BytesOut %d, BytesIn %d; want %d, %d", s.BytesOut, s.BytesIn, 2*len(wantOut), 2*len(wantIn))
			}
		})
	}
}

func TestMembershipLifecycle(t *testing.T) {
	m := NewMembership(time.Second)
	now := time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)
	m.Register(&wire.Register{Node: "w1", Addr: "a1", Capacity: 2}, now)
	m.Register(&wire.Register{Node: "w2", Addr: "a2"}, now) // capacity defaults to 1
	if got := len(m.Alive()); got != 2 {
		t.Fatalf("alive = %d", got)
	}
	mem, ok := m.Get("w2")
	if !ok || mem.Capacity != 1 {
		t.Errorf("w2 = %+v ok=%v", mem, ok)
	}
	// Heartbeats refresh; unknown nodes rejected.
	if !m.Heartbeat(&wire.Heartbeat{Node: "w1", Load: 10, Stored: 5, Cameras: 3}, now.Add(500*time.Millisecond)) {
		t.Error("heartbeat for registered node rejected")
	}
	if m.Heartbeat(&wire.Heartbeat{Node: "ghost"}, now) {
		t.Error("heartbeat for unknown node accepted")
	}
	// Sweep after timeout: w2 dies (no heartbeat), w1 survives.
	died := m.Sweep(now.Add(1200 * time.Millisecond))
	if len(died) != 1 || died[0].Node != "w2" {
		t.Fatalf("died = %+v", died)
	}
	// Edge-triggered: second sweep reports nothing new.
	if died := m.Sweep(now.Add(2 * time.Second)); len(died) != 1 || died[0].Node != "w1" {
		t.Fatalf("second sweep = %+v (w1 should now die)", died)
	}
	if got := len(m.Alive()); got != 0 {
		t.Errorf("alive after death = %d", got)
	}
	// A heartbeat revives a dead-but-known member.
	if !m.Heartbeat(&wire.Heartbeat{Node: "w1"}, now.Add(3*time.Second)) {
		t.Error("revival heartbeat rejected")
	}
	if got := len(m.Alive()); got != 1 {
		t.Errorf("alive after revival = %d", got)
	}
}

func camsGrid(n int) []wire.CameraInfo {
	out := make([]wire.CameraInfo, n)
	side := 1
	for side*side < n {
		side++
	}
	for i := range out {
		out[i] = wire.CameraInfo{
			ID:  uint32(i + 1),
			Pos: geo.Pt(float64(i%side)*100, float64(i/side)*100),
		}
	}
	return out
}

func TestPartitionersCompleteAndDeterministic(t *testing.T) {
	cams := camsGrid(100)
	nodes := []wire.NodeID{"w3", "w1", "w2"}
	for _, p := range []Partitioner{&SpatialPartitioner{}, &HashPartitioner{}, &RoundRobinPartitioner{}} {
		t.Run(p.Name(), func(t *testing.T) {
			a := p.Partition(cams, nodes)
			if len(a) != len(cams) {
				t.Fatalf("assigned %d of %d cameras", len(a), len(cams))
			}
			valid := map[wire.NodeID]bool{"w1": true, "w2": true, "w3": true}
			for cam, node := range a {
				if !valid[node] {
					t.Fatalf("camera %d assigned to unknown node %q", cam, node)
				}
			}
			// Determinism, including across node-order permutations.
			b := p.Partition(cams, []wire.NodeID{"w1", "w2", "w3"})
			for cam := range a {
				if a[cam] != b[cam] {
					t.Fatalf("camera %d unstable: %v vs %v", cam, a[cam], b[cam])
				}
			}
			// Rough balance: no node has more than 2× the fair share.
			for node, count := range a.Counts() {
				if count > 2*len(cams)/len(nodes)+1 {
					t.Errorf("node %v has %d cameras (fair share %d)", node, count, len(cams)/len(nodes))
				}
			}
		})
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	for _, p := range []Partitioner{&SpatialPartitioner{}, &HashPartitioner{}, &RoundRobinPartitioner{}} {
		if got := p.Partition(nil, []wire.NodeID{"w1"}); len(got) != 0 {
			t.Errorf("%s: empty cameras → %v", p.Name(), got)
		}
		if got := p.Partition(camsGrid(3), nil); len(got) != 0 {
			t.Errorf("%s: no nodes → %v", p.Name(), got)
		}
		// Single node takes everything.
		a := p.Partition(camsGrid(7), []wire.NodeID{"only"})
		if len(a) != 7 {
			t.Errorf("%s: single node assigned %d", p.Name(), len(a))
		}
		for _, n := range a {
			if n != "only" {
				t.Errorf("%s: stray node %v", p.Name(), n)
			}
		}
	}
}

func TestSpatialPartitionerLocality(t *testing.T) {
	// Cameras on a 10×10 grid, 4 workers: spatially adjacent cameras should
	// overwhelmingly share a worker compared to round-robin.
	cams := camsGrid(100)
	nodes := []wire.NodeID{"w1", "w2", "w3", "w4"}
	adjacentSame := func(a Assignment) float64 {
		same, total := 0, 0
		for i := range cams {
			for j := range cams {
				if i >= j {
					continue
				}
				if cams[i].Pos.Dist(cams[j].Pos) <= 100.001 {
					total++
					if a[cams[i].ID] == a[cams[j].ID] {
						same++
					}
				}
			}
		}
		return float64(same) / float64(total)
	}
	spatial := adjacentSame((&SpatialPartitioner{}).Partition(cams, nodes))
	rr := adjacentSame((&RoundRobinPartitioner{}).Partition(cams, nodes))
	if spatial <= rr {
		t.Errorf("spatial locality %v not better than round-robin %v", spatial, rr)
	}
	if spatial < 0.6 {
		t.Errorf("spatial locality = %v, want >= 0.6", spatial)
	}
}

func TestHashPartitionerMinimalChurn(t *testing.T) {
	cams := camsGrid(200)
	p := &HashPartitioner{}
	before := p.Partition(cams, []wire.NodeID{"w1", "w2", "w3", "w4"})
	after := p.Partition(cams, []wire.NodeID{"w1", "w2", "w3"}) // w4 died
	moved := 0
	for _, c := range cams {
		if before[c.ID] != "w4" && before[c.ID] != after[c.ID] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("rendezvous hashing moved %d cameras not owned by the dead node", moved)
	}
}

func TestHilbertCurveProperties(t *testing.T) {
	const order = 4
	side := 1 << order
	seen := make(map[uint64][2]uint32)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			d := hilbertD(order, uint32(x), uint32(y))
			if prev, dup := seen[d]; dup {
				t.Fatalf("hilbert collision: (%d,%d) and %v both map to %d", x, y, prev, d)
			}
			seen[d] = [2]uint32{uint32(x), uint32(y)}
			if d >= uint64(side*side) {
				t.Fatalf("hilbert index %d out of range", d)
			}
		}
	}
	// Consecutive curve positions are lattice neighbors.
	byD := make([][2]uint32, side*side)
	for d, xy := range seen {
		byD[d] = xy
	}
	for d := 1; d < len(byD); d++ {
		dx := int(byD[d][0]) - int(byD[d-1][0])
		dy := int(byD[d][1]) - int(byD[d-1][1])
		if dx*dx+dy*dy != 1 {
			t.Fatalf("hilbert discontinuity between d=%d and d=%d", d-1, d)
		}
	}
}

func TestTransportStatsAccumulate(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	srv, _ := tr.Serve("w", echoHandler)
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	n := 20 + rng.Intn(20)
	for i := 0; i < n; i++ {
		tr.Call(context.Background(), "w", &wire.CountQuery{QueryID: uint64(i)})
	}
	if got := tr.Stats().Calls; got != int64(n) {
		t.Errorf("Calls = %d, want %d", got, n)
	}
}

// TestTCPClientRedialsAfterServerRestart: a client whose connection died must
// transparently redial when the server comes back on the same address.
func TestTCPClientRedialsAfterServerRestart(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	srv, err := tr.Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	ctx := context.Background()
	if _, err := tr.Call(ctx, addr, &wire.CountQuery{QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The connection is dead now; a call must fail...
	failCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	if _, err := tr.Call(failCtx, addr, &wire.CountQuery{QueryID: 2}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	cancel()
	// ...until a new server binds the same address, when the next call
	// redials.
	srv2, err := tr.Serve(addr, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var lastErr error
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		_, lastErr = tr.Call(callCtx, addr, &wire.CountQuery{QueryID: 3})
		cancel()
		if lastErr == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never redialed: %v", lastErr)
}
