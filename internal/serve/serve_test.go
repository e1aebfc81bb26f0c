package serve

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"stcam/internal/clock"
	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/metrics"
	"stcam/internal/wire"
)

var (
	ctx    = context.Background()
	world  = geo.RectOf(0, 0, 1000, 1000)
	window = wire.TimeWindow{From: time.Unix(0, 0).UTC(), To: time.Unix(4e9, 0).UTC()}
)

// gridCams builds an n×n omni-camera lattice covering the world.
func gridCams(n int) []wire.CameraInfo {
	out := make([]wire.CameraInfo, 0, n*n)
	cw, ch := world.Width()/float64(n), world.Height()/float64(n)
	rng := 0.8 * math.Max(cw, ch)
	id := uint32(1)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			out = append(out, wire.CameraInfo{
				ID:      id,
				Pos:     geo.Pt(world.Min.X+(float64(c)+0.5)*cw, world.Min.Y+(float64(r)+0.5)*ch),
				HalfFOV: math.Pi,
				Range:   rng,
			})
			id++
		}
	}
	return out
}

// newServedCluster assembles a local cluster with the serving plane attached
// and an n×n camera grid installed.
func newServedCluster(t *testing.T, workers, grid int, opts Options) (*core.Cluster, *Frontend) {
	t.Helper()
	c, err := core.NewLocalCluster(workers, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Coordinator.AddCameras(ctx, gridCams(grid), 50); err != nil {
		t.Fatal(err)
	}
	return c, New(c.Coordinator, opts)
}

// gw sends a request through the transport to the coordinator, i.e. through
// the full dispatch + gateway path a remote client exercises.
func gw(t *testing.T, c *core.Cluster, req any) any {
	t.Helper()
	resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), req)
	if err != nil {
		t.Fatalf("%T: %v", req, err)
	}
	return resp
}

func ingest(t *testing.T, c *core.Cluster, obs ...wire.Observation) {
	t.Helper()
	byCam := map[uint32][]wire.Observation{}
	for _, o := range obs {
		byCam[o.Camera] = append(byCam[o.Camera], o)
	}
	for cam, batch := range byCam {
		addr, ok := c.Coordinator.RouteFor(cam)
		if !ok {
			t.Fatalf("no route for camera %d", cam)
		}
		if _, err := c.Transport.Call(ctx, addr, &wire.IngestBatch{Camera: cam, Observations: batch}); err != nil {
			t.Fatal(err)
		}
	}
}

func obsAt(id uint64, cam uint32, p geo.Point, at time.Time) wire.Observation {
	return wire.Observation{ObsID: id, Camera: cam, Time: at, Pos: p}
}

// trackedObs is obsAt with an appearance feature, so the worker associates a
// target ID — continuous queries only answer over associated targets.
func trackedObs(id uint64, cam uint32, p geo.Point, at time.Time) wire.Observation {
	o := obsAt(id, cam, p, at)
	o.Feature = []float32{1, 0, 0.5}
	return o
}

func counter(c *core.Cluster, name string) int64 {
	return c.Coordinator.Metrics().Snapshot().Counters[name]
}

func gauge(c *core.Cluster, name string) int64 {
	return c.Coordinator.Metrics().Snapshot().Gauges[name]
}

// TestSharedSubscribeDedup: 64 subscribers to the same geofence share one
// worker-side install, and every one of them sees the update stream.
func TestSharedSubscribeDedup(t *testing.T) {
	c, f := newServedCluster(t, 2, 2, Options{})
	rect := geo.RectOf(100, 100, 400, 400)
	const subs = 64
	ids := make([]uint64, 0, subs)
	var queryID uint64
	for i := 0; i < subs; i++ {
		ack := gw(t, c, &wire.Subscribe{Kind: wire.ContinuousRange, Rect: rect}).(*wire.SubscribeAck)
		if ack.Shared != i+1 {
			t.Fatalf("subscriber %d: Shared = %d, want %d", i, ack.Shared, i+1)
		}
		if i == 0 {
			queryID = ack.QueryID
		} else if ack.QueryID != queryID {
			t.Fatalf("subscriber %d got install %d, want shared %d", i, ack.QueryID, queryID)
		}
		ids = append(ids, ack.SubID)
	}
	if n := gauge(c, "continuous.active"); n != 1 {
		t.Fatalf("shared installs = %d, want 1", n)
	}
	if g := gauge(c, "continuous.active"); g != 1 {
		t.Fatalf("continuous.active = %d, want 1 (dedup broken)", g)
	}
	if subscriberCount(f) != subs {
		t.Fatalf("subscriber count = %d, want %d", subscriberCount(f), subs)
	}

	ingest(t, c, trackedObs(1, 1, geo.Pt(200, 200), time.Unix(100, 0).UTC()))

	// Every subscriber drains the same update (the pump is asynchronous).
	for _, id := range ids {
		deadline := time.Now().Add(5 * time.Second)
		got := 0
		for got == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("subscriber %d never saw the update", id)
			}
			pr := gw(t, c, &wire.PollUpdates{SubID: id, Max: 16}).(*wire.PollResult)
			got = len(pr.Updates)
			if got == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Tear down: refcount drains to zero and the install is removed.
	for i, id := range ids {
		ack := gw(t, c, &wire.Unsubscribe{SubID: id}).(*wire.UnsubscribeAck)
		if want := subs - i - 1; ack.Remaining != want {
			t.Fatalf("unsubscribe %d: Remaining = %d, want %d", i, ack.Remaining, want)
		}
	}
	if n := gauge(c, "continuous.active"); n != 0 {
		t.Fatalf("shared installs after teardown = %d, want 0", n)
	}
	if g := gauge(c, "continuous.active"); g != 0 {
		t.Fatalf("continuous.active after teardown = %d, want 0 (leaked install)", g)
	}
	if subscriberCount(f) != 0 {
		t.Fatalf("subscribers after teardown = %d, want 0", subscriberCount(f))
	}
}

// TestSlowConsumerEviction: a subscriber that never polls is evicted once its
// bounded buffer has overflowed persistently, releasing the shared install.
func TestSlowConsumerEviction(t *testing.T) {
	c, _ := newServedCluster(t, 1, 2, Options{SubscriberBuffer: 4})
	rect := geo.RectOf(100, 100, 400, 400)
	ack := gw(t, c, &wire.Subscribe{Kind: wire.ContinuousRange, Rect: rect}).(*wire.SubscribeAck)

	// Walk one target in and out of the geofence: every flip is an answer
	// delta, so buffer(4) + dropped(4) updates force the eviction threshold.
	for i := 0; i < 16; i++ {
		at := time.Unix(int64(100+i), 0).UTC()
		if i%2 == 0 {
			ingest(t, c, trackedObs(uint64(100+i), 1, geo.Pt(200, 200), at))
		} else {
			ingest(t, c, trackedObs(uint64(100+i), 4, geo.Pt(600, 600), at))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for gauge(c, "continuous.active") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never evicted; shared install still live")
		}
		time.Sleep(time.Millisecond)
	}
	pr := gw(t, c, &wire.PollUpdates{SubID: ack.SubID, Max: 0}).(*wire.PollResult)
	if !pr.Evicted {
		t.Fatal("final poll did not report eviction")
	}
	if pr.Dropped == 0 {
		t.Fatal("eviction without any reported drops")
	}
	// The eviction was reported once; the subscriber is now forgotten.
	_, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.PollUpdates{SubID: ack.SubID})
	re, ok := err.(*cluster.RemoteError)
	if !ok || re.Code != wire.CodeBadRequest {
		t.Fatalf("poll after eviction report: got %v, want unknown-subscriber error", err)
	}
}

// TestConcurrentFirstSubscribe is the regression for the install race: many
// first subscribers to one new shape at once end up on one install, and the
// continuous.active gauge (written under the coordinator lock) reads exactly
// one install while they are attached and zero after they leave.
func TestConcurrentFirstSubscribe(t *testing.T) {
	c, f := newServedCluster(t, 2, 2, Options{})
	const subs, rounds = 16, 20
	for round := 0; round < rounds; round++ {
		rect := geo.RectOf(100, 100, float64(300+round), 400)
		acks := make([]*wire.SubscribeAck, subs)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range acks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start.Wait()
				resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Subscribe{Kind: wire.ContinuousRange, Rect: rect})
				if err != nil {
					t.Error(err)
					return
				}
				acks[i] = resp.(*wire.SubscribeAck)
			}(i)
		}
		start.Done()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, ack := range acks {
			if ack.QueryID != acks[0].QueryID {
				t.Fatalf("round %d: subscriber %d got install %d, subscriber 0 got %d", round, i, ack.QueryID, acks[0].QueryID)
			}
		}
		if g := gauge(c, "continuous.active"); g != 1 {
			t.Fatalf("round %d: continuous.active = %d with %d subscribers on one shape, want 1", round, g, subs)
		}
		for _, ack := range acks {
			gw(t, c, &wire.Unsubscribe{SubID: ack.SubID})
		}
		if g := gauge(c, "continuous.active"); g != 0 {
			t.Fatalf("round %d: continuous.active = %d after every unsubscribe, want 0", round, g)
		}
	}
	if subscriberCount(f) != 0 {
		t.Fatalf("subscribers after teardown = %d, want 0", subscriberCount(f))
	}
}

// TestSubscribersGaugeAfterStop is the regression for the serve.subscribers
// leak: subscribers cut loose by a stopping coordinator leave the gauge, each
// learns of its eviction on its next poll, and continuous.active drops to 0.
func TestSubscribersGaugeAfterStop(t *testing.T) {
	c, f := newServedCluster(t, 1, 2, Options{})
	var ids []uint64
	for _, r := range []geo.Rect{geo.RectOf(0, 0, 300, 300), geo.RectOf(0, 0, 300, 300), geo.RectOf(500, 500, 900, 900)} {
		ids = append(ids, gw(t, c, &wire.Subscribe{Kind: wire.ContinuousRange, Rect: r}).(*wire.SubscribeAck).SubID)
	}
	if g := gauge(c, "serve.subscribers"); g != 3 {
		t.Fatalf("serve.subscribers = %d after 3 subscribes, want 3", g)
	}
	c.Coordinator.Stop()
	if g := gauge(c, "continuous.active"); g != 0 {
		t.Fatalf("continuous.active = %d after the coordinator stopped, want 0", g)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gauge(c, "serve.subscribers") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("serve.subscribers = %d after the coordinator stopped, want 0", gauge(c, "serve.subscribers"))
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids {
		if pr, _ := f.poll(&wire.PollUpdates{SubID: id}); !pr.(*wire.PollResult).Evicted {
			t.Fatalf("subscriber %d: poll after stop did not report eviction", id)
		}
	}
}

// TestCachedQueriesByteIdentical is the differential suite: within one
// epoch, the cached answer to Range/Heatmap/Count is byte-identical on the
// wire to the uncached one.
func TestCachedQueriesByteIdentical(t *testing.T) {
	c, _ := newServedCluster(t, 3, 3, Options{CacheTTL: time.Hour})
	for i := 0; i < 200; i++ {
		cam := uint32(1 + i%9)
		ingest(t, c, obsAt(uint64(1+i), cam, geo.Pt(float64(10+i%900), float64(20+(i*7)%900)), time.Unix(int64(100+i), 0).UTC()))
	}
	rect := geo.RectOf(0, 0, 800, 800)
	queries := []any{
		&wire.RangeQuery{QueryID: 1, Rect: rect, Window: window, Limit: 1000},
		&wire.CountQuery{QueryID: 2, Rect: rect, Window: window},
		&wire.HeatmapQuery{QueryID: 3, Rect: rect, Window: window, CellSize: 100},
	}
	misses0 := counter(c, "serve.cache.misses")
	for _, q := range queries {
		uncached := gw(t, c, q)
		hits0 := counter(c, "serve.cache.hits")
		cached := gw(t, c, q)
		if counter(c, "serve.cache.hits") != hits0+1 {
			t.Fatalf("%T: second call was not a cache hit", q)
		}
		b1, err1 := wire.Marshal(wire.KindOf(uncached), uncached)
		b2, err2 := wire.Marshal(wire.KindOf(cached), cached)
		if err1 != nil || err2 != nil {
			t.Fatalf("%T: marshal: %v / %v", q, err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%T: cached answer differs from uncached:\n got  %x\n want %x", q, b2, b1)
		}
	}
	if got := counter(c, "serve.cache.misses"); got != misses0+int64(len(queries)) {
		t.Fatalf("misses = %d, want %d", got, misses0+int64(len(queries)))
	}
}

// TestEpochBumpInvalidatesCache is the regression for the stale-cache bug:
// an assignment epoch change must drop every cached entry, so a re-ask after
// reassignment recomputes instead of returning the pre-bump answer.
func TestEpochBumpInvalidatesCache(t *testing.T) {
	c, _ := newServedCluster(t, 2, 2, Options{CacheTTL: time.Hour})
	for i := 0; i < 50; i++ {
		ingest(t, c, obsAt(uint64(1+i), uint32(1+i%4), geo.Pt(float64(50+i*3), float64(60+i*5)), time.Unix(int64(100+i), 0).UTC()))
	}
	q := &wire.CountQuery{QueryID: 9, Rect: geo.RectOf(0, 0, 1000, 1000), Window: window}
	first := gw(t, c, q).(*wire.CountResult)
	gw(t, c, q) // warm: this one is the hit
	hits0 := counter(c, "serve.cache.hits")
	if hits0 == 0 {
		t.Fatal("cache never hit during warmup")
	}

	// Bump the epoch by re-registering the camera set (forces reassignment).
	epoch0 := c.Coordinator.Epoch()
	if err := c.Coordinator.AddCameras(ctx, gridCams(3), 50); err != nil {
		t.Fatal(err)
	}
	if c.Coordinator.Epoch() == epoch0 {
		t.Fatal("AddCameras did not bump the epoch")
	}

	inval0 := counter(c, "serve.cache.invalidations")
	after := gw(t, c, q).(*wire.CountResult)
	if got := counter(c, "serve.cache.hits"); got != hits0 {
		t.Fatalf("query after epoch bump hit the stale cache (hits %d -> %d)", hits0, got)
	}
	if counter(c, "serve.cache.invalidations") != inval0+1 {
		t.Fatal("epoch bump did not invalidate the cache")
	}
	if after.Count != first.Count {
		t.Fatalf("post-bump count %d != pre-bump %d (data did not move)", after.Count, first.Count)
	}
}

// TestCacheTTLExpiry: entries die after the TTL even within one epoch.
func TestCacheTTLExpiry(t *testing.T) {
	fake := clock.NewFake()
	c, _ := newServedCluster(t, 1, 2, Options{CacheTTL: time.Second, Clock: fake})
	q := &wire.CountQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window}
	gw(t, c, q)
	hits0 := counter(c, "serve.cache.hits")
	gw(t, c, q)
	if counter(c, "serve.cache.hits") != hits0+1 {
		t.Fatal("warm query was not a hit")
	}
	fake.Advance(2 * time.Second)
	gw(t, c, q)
	if counter(c, "serve.cache.hits") != hits0+1 {
		t.Fatal("expired entry served as a hit")
	}
	if counter(c, "serve.cache.expired") == 0 {
		t.Fatal("expiry not counted")
	}
}

// TestCacheByteBudget: the LRU evicts from the cold end once over budget.
func TestCacheByteBudget(t *testing.T) {
	c, _ := newServedCluster(t, 1, 2, Options{CacheBytes: 64, CacheTTL: time.Hour})
	for i := 0; i < 8; i++ {
		r := geo.RectOf(0, 0, float64(100+i), 500)
		gw(t, c, &wire.CountQuery{Rect: r, Window: window})
	}
	if counter(c, "serve.cache.evicted") == 0 {
		t.Fatal("no evictions despite a 64-byte budget")
	}
	if got := gauge(c, "serve.cache.bytes"); got > 64 {
		t.Fatalf("cache bytes %d over the 64-byte budget", got)
	}
}

// TestCachePutSizesWithoutEncoding: caching a large RangeResult records its
// exact encoded length without materializing the encoding.
func TestCachePutSizesWithoutEncoding(t *testing.T) {
	res := &wire.RangeResult{Records: make([]wire.ResultRecord, 20000), Asked: 4, Answered: 4}
	for i := range res.Records {
		res.Records[i] = wire.ResultRecord{ObsID: uint64(i), Camera: 3, Pos: geo.Pt(float64(i), 1), Time: time.Unix(int64(i), 7)}
	}
	enc, err := wire.Marshal(wire.KindRangeResult, res)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(64<<20, time.Hour, clock.Wall, metrics.NewRegistry())
	c.put("k", 1, res)
	if c.bytes != int64(len(enc)) {
		t.Fatalf("recorded size %d, encoded length %d", c.bytes, len(enc))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const puts = 20
	for i := 0; i < puts; i++ {
		c.put("k", 1, res)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / puts; per > 4096 {
		t.Fatalf("put allocates %d B for a %d B answer; want it sized without encoding", per, len(enc))
	}
}

// TestPartialHeatmapNotCached is the regression for caching a degraded
// heatmap: an answer assembled while a worker was unreachable must not be
// served from the cache once the worker is back.
func TestPartialHeatmapNotCached(t *testing.T) {
	faulty := cluster.NewFaulty(cluster.NewInProc(), 3)
	c, err := core.NewLocalClusterOver(faulty, 2, nil, core.Options{
		RetryPolicy: cluster.Policy{MaxAttempts: 1, FailureThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Coordinator.AddCameras(ctx, gridCams(2), 50); err != nil {
		t.Fatal(err)
	}
	New(c.Coordinator, Options{CacheTTL: time.Hour})
	for i := 0; i < 40; i++ {
		cam := uint32(1 + i%4)
		p := gridCams(2)[cam-1].Pos
		ingest(t, c, obsAt(uint64(1+i), cam, p, time.Unix(int64(100+i), 0).UTC()))
	}
	total := func(hr *wire.HeatmapResult) int64 {
		var n int64
		for _, cell := range hr.Cells {
			n += cell.Count
		}
		return n
	}
	q := &wire.HeatmapQuery{Rect: world, Window: window, CellSize: 100}

	down := c.Workers[0].Addr()
	faulty.SetPartitioned(down, true)
	partial := gw(t, c, q).(*wire.HeatmapResult)
	if total(partial) >= 40 {
		t.Fatalf("heatmap with %s partitioned counted %d of 40; the partition did not bite", down, total(partial))
	}
	faulty.SetPartitioned(down, false)
	if got := total(gw(t, c, q).(*wire.HeatmapResult)); got != 40 {
		t.Fatalf("heatmap after heal counted %d, want 40 (the partial answer was cached)", got)
	}
}

// TestAdmissionPriorityOrder: background sheds at the watermark, interactive
// at twice it, control never.
func TestAdmissionPriorityOrder(t *testing.T) {
	c, f := newServedCluster(t, 1, 2, Options{MaxInflight: 2})
	_ = c
	bg := cluster.WithPriority(ctx, cluster.PriorityBackground)
	ia := cluster.WithPriority(ctx, cluster.PriorityInteractive)
	co := cluster.WithPriority(ctx, cluster.PriorityControl)

	// Hold 2 admissions: at the watermark, background sheds next.
	for i := 0; i < 2; i++ {
		if resp, ok := f.admit(bg, ""); !ok {
			t.Fatalf("admission %d denied below watermark: %v", i, resp)
		}
	}
	if resp, ok := f.admit(bg, ""); ok {
		f.inflight.Add(-1)
		t.Fatal("background admitted above watermark")
	} else if e, isErr := resp.(*wire.Error); !isErr || e.Code != wire.CodeShed {
		t.Fatalf("background shed response = %#v, want CodeShed", resp)
	}
	// Interactive still gets in until twice the watermark.
	for i := 0; i < 2; i++ {
		if _, ok := f.admit(ia, ""); !ok {
			t.Fatalf("interactive %d denied below 2x watermark", i)
		}
	}
	if _, ok := f.admit(ia, ""); ok {
		f.inflight.Add(-1)
		t.Fatal("interactive admitted above 2x watermark")
	}
	// Control is never shed.
	if _, ok := f.admit(co, ""); !ok {
		t.Fatal("control traffic shed")
	}
	f.inflight.Add(-1)
	if got := counter(c, "serve.shed.background"); got != 1 {
		t.Fatalf("serve.shed.background = %d, want 1", got)
	}
	if got := counter(c, "serve.shed.interactive"); got != 1 {
		t.Fatalf("serve.shed.interactive = %d, want 1", got)
	}
}

// TestTenantQuota: the per-tenant token bucket denies once the burst is
// spent and refills with time.
func TestTenantQuota(t *testing.T) {
	fake := clock.NewFake()
	c, _ := newServedCluster(t, 1, 2, Options{QuotaRate: 1, QuotaBurst: 2, Clock: fake})
	tctx := cluster.WithTenant(ctx, "acme")
	q := func() any {
		resp, err := c.Transport.Call(tctx, c.Coordinator.Addr(),
			&wire.CountQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window})
		if err != nil {
			// The transport surfaces wire.Error as a RemoteError.
			if re, ok := err.(*cluster.RemoteError); ok {
				return &wire.Error{Code: re.Code, Message: re.Message}
			}
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		if e, isErr := q().(*wire.Error); isErr {
			t.Fatalf("burst query %d denied: %+v", i, e)
		}
	}
	if e, isErr := q().(*wire.Error); !isErr || e.Code != wire.CodeOverQuota {
		t.Fatalf("over-burst query: got %#v, want CodeOverQuota", e)
	}
	if counter(c, "serve.quota.denied") == 0 {
		t.Fatal("quota denial not counted")
	}
	fake.Advance(time.Second)
	if e, isErr := q().(*wire.Error); isErr {
		t.Fatalf("query after refill denied: %+v", e)
	}
	// A different tenant has its own bucket.
	other := cluster.WithTenant(ctx, "globex")
	if resp, err := c.Transport.Call(other, c.Coordinator.Addr(),
		&wire.CountQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window}); err != nil {
		t.Fatalf("other tenant denied: %v %v", resp, err)
	}
}

// TestIngestNeverShed: ingest flows through untouched even when the serving
// plane sheds everything — the gateway never handles IngestBatch.
func TestIngestNeverShed(t *testing.T) {
	c, f := newServedCluster(t, 1, 2, Options{MaxInflight: 1})
	// Saturate: hold admissions past every watermark.
	for i := 0; i < 4; i++ {
		f.inflight.Add(1)
	}
	defer f.inflight.Add(-4)
	// Queries shed...
	if _, err := c.Transport.Call(ctx, c.Coordinator.Addr(),
		&wire.CountQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window}); err == nil {
		t.Fatal("query admitted past 2x watermark")
	}
	// ...but ingest lands.
	ingest(t, c, obsAt(1, 1, geo.Pt(200, 200), time.Unix(100, 0).UTC()))
}

// TestServedRangeIsEncodedOnce: the front-end answers a range query with the
// coordinator's merged bytes — no decoded records — caches those bytes, and
// reports a limit cut as Truncated on misses and hits alike.
func TestServedRangeIsEncodedOnce(t *testing.T) {
	c, _ := newServedCluster(t, 3, 3, Options{CacheTTL: time.Hour})
	const total = 40
	for i := 0; i < total; i++ {
		ingest(t, c, obsAt(uint64(1+i), uint32(1+i%9), geo.Pt(float64(10+i*20), float64(20+(i*7)%900)), time.Unix(int64(100+i), 0).UTC()))
	}
	for _, limit := range []int{0, 7, total} {
		q := &wire.RangeQuery{QueryID: 5, Rect: world, Window: window, Limit: limit}
		want := total
		if limit > 0 && limit < total {
			want = limit
		}
		for _, pass := range []string{"miss", "hit"} {
			rr := gw(t, c, q).(*wire.RangeResult)
			if rr.Records != nil || rr.Encoded.N != want {
				t.Fatalf("limit %d %s: %d records and %d encoded, want %d encoded only", limit, pass, len(rr.Records), rr.Encoded.N, want)
			}
			if rr.Truncated != (want < total) {
				t.Fatalf("limit %d %s: Truncated = %v", limit, pass, rr.Truncated)
			}
			recs, err := rr.Encoded.Decode()
			if err != nil || len(recs) != want {
				t.Fatalf("limit %d %s: decode %d records, %v", limit, pass, len(recs), err)
			}
		}
	}
}

// subscriberCount reports f's attached subscribers.
func subscriberCount(f *Frontend) int {
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return len(f.subs)
}
