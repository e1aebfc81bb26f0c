package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/serve"
	"stcam/internal/wire"
)

// R21 prices the serving plane (DESIGN.md §serving): what shared fan-out,
// epoch-keyed result caching, and priority admission buy a coordinator facing
// heavy read traffic. One cluster runs over an in-proc transport with a fixed
// simulated per-message latency, so every ratio below is dominated by message
// counts — the quantity the serving plane actually changes — not host speed.
// Headline columns feeding the CI gate (all on the "shared" row; the
// "per-sub" baseline row carries "-" in gated cells):
//
//   - "dedup×": subscribers per worker-side install. 64 subscribers over 4
//     distinct geofences must collapse to 4 installs (16×); floored at 8.
//   - "speedup×": sustained update deliveries/sec, shared fan-out vs naive
//     per-subscriber installs. Per-sub, every transition pushes one RPC per
//     subscriber; shared, one per geofence — the ratio is a message-count
//     ratio and must hold ≥5× (paper-level claim).
//   - "cache hit": hit fraction over a fixed repeated-query storm (8 shapes
//     × 50 repeats → 49/50 ideal); floored at 0.9. Collapses to 0 if
//     canonicalization or epoch keying breaks.
//   - "ingest acked": fraction of coordinator-proxied ingest batches acked
//     while a background-priority query storm is being shed. Ingest is never
//     admission-controlled, so this must stay 1.0; floored at 0.999.
//   - "ingest p99×": proxied-ingest P99 latency under the query storm vs
//     idle. The admission watermark exists to keep this flat; ceiling 1.10.
const (
	r21Subs     = 64
	r21Latency  = 200 * time.Microsecond
	r21Repeats  = 50  // cache storm repeats — fixed, so the hit ratio is scale-independent
	r21Samples  = 300 // ingest latency samples per segment — fixed, so P99 depth is scale-independent
	r21Segments = 5   // independent P99 estimates per side; min-of-segments rejects host noise
)

// r21Shapes are four distinct geofences that all contain the in-point, so a
// single tracked target flipping in/out transitions every installed query at
// once: per-sub mode pays one coordinator push per subscriber per flip.
var r21Shapes = []geo.Rect{
	geo.RectOf(0, 0, 200, 200),
	geo.RectOf(0, 0, 300, 300),
	geo.RectOf(50, 50, 250, 250),
	geo.RectOf(0, 0, 400, 400),
}

// r21World builds the one-worker serving cluster: a single worker keeps the
// target's association (and thus its enter/leave transitions) on one node, so
// update counts are exact, while the injected latency still prices every
// coordinator push and client RPC.
func r21World(ctx context.Context) (*core.Cluster, *serve.Frontend) {
	tr := withLatency(r21Latency, 1)
	opts := core.Options{CellSize: 50, LostAfter: time.Hour}
	coord := core.NewCoordinator("coord", tr, nil, opts)
	if err := coord.Start(); err != nil {
		panic(err)
	}
	w := core.NewWorker("w01", "worker-01", "coord", tr, opts)
	if err := w.Start(ctx); err != nil {
		panic(err)
	}
	c := &core.Cluster{Coordinator: coord, Transport: tr, Workers: []*core.Worker{w}}
	if err := coord.AddCameras(ctx, omniGrid(geo.RectOf(0, 0, 1000, 1000), 3), 150); err != nil {
		panic(err)
	}
	f := serve.New(coord, serve.Options{
		CacheTTL:         time.Hour,
		CacheBytes:       1 << 20, // bounded: the shed storm's one-shot misses must not grow the heap
		MaxInflight:      2,       // low watermark so a small storm sheds without saturating the host
		SubscriberBuffer: 4096,
	})
	return c, f
}

// r21Flip ingests one tracked observation, alternating the target between a
// point inside every shape and a point outside all of them — each call is one
// enter or leave transition for every installed query.
func r21Flip(ctx context.Context, c *core.Cluster, obsID uint64, flip int) {
	pos, cam := geo.Pt(100, 100), uint32(1) // inside all shapes
	if flip%2 == 1 {
		pos, cam = geo.Pt(700, 700), uint32(9) // outside all shapes
	}
	addr, ok := c.Coordinator.RouteFor(cam)
	if !ok {
		panic("bench: R21 camera has no owner")
	}
	b := &wire.IngestBatch{Camera: cam, Observations: []wire.Observation{{
		ObsID:   obsID,
		Camera:  cam,
		Pos:     pos,
		Time:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(flip) * 100 * time.Millisecond),
		Feature: []float32{1, 0, 0.5},
	}}}
	if _, err := c.Transport.Call(ctx, addr, b); err != nil {
		panic(err)
	}
}

// r21PerSub measures the naive baseline: every subscriber gets its own
// worker-side install, so each flip costs one coordinator push per
// subscriber before the ingest acks. Returns delivered updates/sec.
func r21PerSub(ctx context.Context, c *core.Cluster, flips int) float64 {
	ids := make([]uint64, 0, r21Subs)
	chans := make([]<-chan wire.ContinuousUpdate, 0, r21Subs)
	for i := 0; i < r21Subs; i++ {
		id, ch, err := c.Coordinator.InstallContinuous(ctx, wire.ContinuousRange, r21Shapes[i%len(r21Shapes)], 0)
		if err != nil {
			panic(err)
		}
		ids, chans = append(ids, id), append(chans, ch)
	}
	start := time.Now()
	for f := 0; f < flips; f++ {
		r21Flip(ctx, c, uint64(f+1), f)
	}
	// Pushes are synchronous within the ingest ack, so every update is
	// already buffered; the drain is bookkeeping, not waiting.
	delivered := 0
	for _, ch := range chans {
		for {
			ok := false
			select {
			case _, ok = <-ch:
			default:
			}
			if !ok {
				break
			}
			delivered++
		}
	}
	dur := time.Since(start)
	for _, id := range ids {
		if err := c.Coordinator.RemoveContinuous(ctx, id); err != nil {
			panic(err)
		}
	}
	if delivered == 0 {
		panic("bench: R21 per-sub mode delivered no updates")
	}
	return float64(delivered) / dur.Seconds()
}

// r21Shared measures the serving plane: subscribers arrive through the wire
// Subscribe path, dedup onto shared installs, and drain through PollUpdates.
// Returns delivered updates/sec plus the live install count for the dedup
// column.
func r21Shared(ctx context.Context, c *core.Cluster, flips int) (float64, int) {
	subIDs := make([]uint64, 0, r21Subs)
	for i := 0; i < r21Subs; i++ {
		resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Subscribe{
			Kind: wire.ContinuousRange, Rect: r21Shapes[i%len(r21Shapes)],
		})
		if err != nil {
			panic(err)
		}
		subIDs = append(subIDs, resp.(*wire.SubscribeAck).SubID)
	}
	installs := int(c.Coordinator.Metrics().Snapshot().Gauges["continuous.active"])

	start := time.Now()
	for f := 0; f < flips; f++ {
		r21Flip(ctx, c, uint64(1_000_000+f+1), f)
	}
	// Every subscriber polls concurrently — 64 independent clients, exactly
	// like the per-sub baseline's 64 independent channels — re-polling until
	// it has drained its share (the fan-out pump is asynchronous).
	var wg sync.WaitGroup
	var delivered atomic.Int64
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range subIDs {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for got := 0; got < flips; {
				if time.Now().After(deadline) {
					panic(fmt.Sprintf("bench: R21 subscriber %d stalled at %d/%d updates", id, got, flips))
				}
				resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.PollUpdates{SubID: id, Max: flips})
				if err != nil {
					panic(err)
				}
				n := len(resp.(*wire.PollResult).Updates)
				got += n
				delivered.Add(int64(n))
			}
		}(id)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, id := range subIDs {
		if _, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Unsubscribe{SubID: id}); err != nil {
			panic(err)
		}
	}
	return float64(delivered.Load()) / dur.Seconds(), installs
}

// r21CacheStorm replays a fixed set of Range/Count/Heatmap shapes r21Repeats
// times through the gateway and returns the hit fraction from the serving
// metrics.
func r21CacheStorm(ctx context.Context, c *core.Cluster) float64 {
	window := wire.TimeWindow{From: time.Unix(0, 0).UTC(), To: time.Unix(4e9, 0).UTC()}
	queries := []any{
		&wire.RangeQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window},
		&wire.RangeQuery{Rect: geo.RectOf(200, 200, 900, 900), Window: window},
		&wire.RangeQuery{Rect: geo.RectOf(0, 500, 1000, 1000), Window: window, Limit: 32},
		&wire.CountQuery{Rect: geo.RectOf(0, 0, 1000, 1000), Window: window},
		&wire.CountQuery{Rect: geo.RectOf(100, 100, 400, 400), Window: window},
		&wire.CountQuery{Rect: geo.RectOf(600, 0, 1000, 400), Window: window},
		&wire.HeatmapQuery{Rect: geo.RectOf(0, 0, 1000, 1000), Window: window, CellSize: 100},
		&wire.HeatmapQuery{Rect: geo.RectOf(0, 0, 500, 500), Window: window, CellSize: 50},
	}
	snap := c.Coordinator.Metrics().Snapshot()
	hits0, miss0 := snap.Counters["serve.cache.hits"], snap.Counters["serve.cache.misses"]
	for r := 0; r < r21Repeats; r++ {
		for _, q := range queries {
			if _, err := c.Transport.Call(ctx, c.Coordinator.Addr(), q); err != nil {
				panic(err)
			}
		}
	}
	snap = c.Coordinator.Metrics().Snapshot()
	hits := snap.Counters["serve.cache.hits"] - hits0
	misses := snap.Counters["serve.cache.misses"] - miss0
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// r21IngestSegment sends r21Samples single-observation batches through the
// coordinator ingest proxy (the path that traverses the gateway) and returns
// the segment's P99 round-trip plus its acked count. Feature-less
// observations keep the worker-side cost constant: no association, no
// continuous evaluation.
func r21IngestSegment(ctx context.Context, c *core.Cluster, base uint64) (time.Duration, int) {
	lats := make([]time.Duration, 0, r21Samples)
	acked := 0
	for i := 0; i < r21Samples; i++ {
		b := &wire.IngestBatch{Camera: 9, Observations: []wire.Observation{{
			ObsID:  base + uint64(i+1),
			Camera: 9,
			Pos:    geo.Pt(700, 700),
			Time:   time.Date(2026, 1, 1, 1, 0, 0, 0, time.UTC).Add(time.Duration(i) * 10 * time.Millisecond),
		}}}
		t0 := time.Now()
		_, err := c.Transport.Call(ctx, c.Coordinator.Addr(), b)
		lats = append(lats, time.Since(t0))
		if err == nil {
			acked++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(0.99 * float64(len(lats)))
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx], acked
}

// r21Storm starts a paced background-priority query storm — enough
// concurrency to hold the admission watermark and shed, without pegging a
// small host's CPU — and returns a stop function. Every query carries a
// distinct window so it misses the cache and holds an admission slot for a
// real scatter.
func r21Storm(ctx context.Context, c *core.Cluster, epoch int) func() {
	stormCtx := cluster.WithPriority(ctx, cluster.PriorityBackground)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(3 * time.Millisecond):
				}
				q := &wire.CountQuery{
					Rect:   geo.RectOf(0, 0, 1000, 1000),
					Window: wire.TimeWindow{From: time.Unix(0, 0).UTC(), To: time.Unix(int64(1e6+epoch*10_000_000+g*1_000_000+i), 0).UTC()},
				}
				c.Transport.Call(stormCtx, c.Coordinator.Addr(), q) //nolint:errcheck // shed responses are the point
			}
		}(g)
	}
	return func() {
		close(stop)
		wg.Wait()
	}
}

// R21Serving benchmarks the serving plane end to end: shared-subscription
// fan-out vs per-subscriber installs, result-cache hit ratio, and ingest
// latency/ack behaviour under a shed query storm.
func R21Serving(s Scale) *Table {
	t := &Table{
		ID:    "R21",
		Title: "Serving plane: shared fan-out, result cache, admission control",
		Notes: fmt.Sprintf("1 worker, %v simulated one-way RPC latency, %d subscribers over %d geofences; upd/s = continuous updates delivered to subscribers per second",
			r21Latency, r21Subs, len(r21Shapes)),
		Header: []string{"mode", "subs", "installs", "dedup×", "upd/s", "speedup×", "cache hit", "ingest acked", "ingest p99×", "shed"},
	}
	ctx := context.Background()
	c, _ := r21World(ctx)
	defer c.Stop()

	flips := s.n(64)
	if flips%2 == 1 {
		flips++ // end outside every shape so the next mode starts from a clean answer set
	}
	perSub := r21PerSub(ctx, c, flips)
	t.AddRow("per-sub", r21Subs, r21Subs, "-", perSub, "-", "-", "-", "-", "-")

	sharedUps, installs := r21Shared(ctx, c, flips)
	dedup := float64(r21Subs) / float64(max(installs, 1))
	speedup := sharedUps / perSub

	hitRatio := r21CacheStorm(ctx, c)

	// Interleaved idle/loaded P99 segments: each round samples the proxied
	// ingest path idle, then again under a shed-heavy background query storm,
	// and contributes one pairwise P99 ratio. The reported ratio is the
	// minimum over rounds: a structural regression (ingest queueing behind
	// query admission) inflates the loaded side of every pair, while one-off
	// host noise — a GC pause, a scheduler hiccup on a small CI runner —
	// lands in a single pair and is rejected; pairing idle/loaded within a
	// round cancels slow-host drift across the phase.
	shed0 := c.Coordinator.Metrics().Snapshot().Counters["serve.shed.background"]
	p99x := 0.0
	acked := 0
	for seg := 0; seg < r21Segments; seg++ {
		runtime.GC()
		idle, _ := r21IngestSegment(ctx, c, 2_000_000+uint64(seg)*uint64(r21Samples))
		stopStorm := r21Storm(ctx, c, seg)
		loaded, n := r21IngestSegment(ctx, c, 3_000_000+uint64(seg)*uint64(r21Samples))
		stopStorm()
		acked += n
		if idle <= 0 {
			idle = 1
		}
		if r := float64(loaded) / float64(idle); p99x == 0 || r < p99x {
			p99x = r
		}
	}
	ackedFrac := float64(acked) / float64(r21Segments*r21Samples)
	shed := c.Coordinator.Metrics().Snapshot().Counters["serve.shed.background"] - shed0

	t.AddRow("shared", r21Subs, installs, dedup, sharedUps,
		fmt.Sprintf("%.1f", speedup), fmt.Sprintf("%.3f", hitRatio),
		fmt.Sprintf("%.3f", ackedFrac), fmt.Sprintf("%.2f", p99x), shed)
	return t
}
