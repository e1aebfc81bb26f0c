package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// variant copies a query with its window's end nudged by n nanoseconds and a
// fresh ID: the same answer under a distinct cache key, so each level of a
// traced query pays a miss as the untraced query did.
func variant(q any, n int) any {
	d := time.Duration(n)
	switch m := q.(type) {
	case *wire.RangeQuery:
		c := *m
		c.QueryID, c.Window.To = m.QueryID+uint64(n), m.Window.To.Add(d)
		return &c
	case *wire.CountQuery:
		c := *m
		c.QueryID, c.Window.To = m.QueryID+uint64(n), m.Window.To.Add(d)
		return &c
	case *wire.HeatmapQuery:
		c := *m
		c.QueryID, c.Window.To = m.QueryID+uint64(n), m.Window.To.Add(d)
		return &c
	}
	return q // kNN is never cached
}

// coordCall runs q on the coordinator in process and reports the scatter's
// fan-out where the coordinator exposes it.
func (t *tracer) coordCall(q any) (d time.Duration, asked, pruned int, ok bool) {
	c := t.e.coord
	switch m := q.(type) {
	case *wire.RangeQuery:
		d = timed(func() {
			_, meta, _ := c.RangeMeta(t.ctx, m.Rect, m.Window, m.Limit)
			asked, pruned, ok = meta.Asked, meta.Pruned, true
		})
	case *wire.KNNQuery:
		d = timed(func() {
			_, meta, _ := c.KNNMeta(t.ctx, m.Center, m.Window, m.K)
			asked, pruned, ok = meta.Asked, meta.Pruned, true
		})
	case *wire.CountQuery:
		d = timed(func() {
			_, meta, _ := c.CountMeta(t.ctx, m.Rect, m.Window)
			asked, pruned, ok = meta.Asked, meta.Pruned, true
		})
	case *wire.HeatmapQuery:
		d = timed(func() { c.Heatmap(t.ctx, m.Rect, m.Window, m.CellSize) }) //nolint:errcheck // cell size is positive
	}
	return d, asked, pruned, ok
}

// storeCall runs q's sub-query straight on a worker's store.
func storeCall(st *stindex.Store, q any) time.Duration {
	switch m := q.(type) {
	case *wire.RangeQuery:
		return timed(func() { st.RangeQuery(m.Rect, m.Window.From, m.Window.To) })
	case *wire.KNNQuery:
		return timed(func() { st.KNNBounded(m.Center, m.Window.From, m.Window.To, m.K, 0, nil) })
	case *wire.CountQuery:
		return timed(func() { st.Count(m.Rect, m.Window.From, m.Window.To) })
	case *wire.HeatmapQuery:
		return timed(func() { st.Heatmap(m.Rect, m.Window.From, m.Window.To, m.CellSize, nil) })
	}
	return 0
}

var storeMetric = [numKinds]string{"stindex.range_us", "stindex.knn_us", "stindex.count_us", "stindex.heatmap_us", "stindex.range_us"}

// fanOut turns worker calls that were measured one at a time into the level
// the coordinator waits for when it makes them in parallel. With a core per
// call the slowest sets the time; on a host with fewer cores than workers
// they queue for CPU, so the level lasts max(slowest, sum/cores). Its inner
// split is the slowest call's subtree, stretched to that length.
func fanOut(calls []time.Duration, slowest *node) *node {
	var sum time.Duration
	for _, d := range calls {
		sum += d
	}
	if par := sum / time.Duration(min(runtime.NumCPU(), len(calls))); par > slowest.d {
		stretch(slowest, float64(par)/float64(slowest.d))
	}
	return slowest
}

func stretch(n *node, f float64) {
	n.d = time.Duration(float64(n.d) * f)
	for _, k := range n.kids {
		stretch(k, f)
	}
}

// workerQuery sends q straight to every worker, one at a time, and returns
// the fan-out level built around the slowest. A worker the coordinator would
// have pruned answers empty and fast, so it neither is the slowest nor adds
// much to the sum.
func (t *tracer) workerQuery(kind int, q any) *node {
	calls := make([]time.Duration, len(t.e.workers))
	resps := make([]any, len(t.e.workers))
	worst := 0
	for i, w := range t.e.workers {
		resps[i], calls[i] = t.call(w.Addr(), q)
		if calls[i] > calls[worst] {
			worst = i
		}
	}
	st := storeCall(t.e.workers[worst].Store(), q)
	t.obs("core.worker_query_us", calls[worst])
	t.obs(storeMetric[kind], st)
	return fanOut(calls, &node{name: "worker.call", layer: "core.worker", d: calls[worst], kids: []*node{
		t.hop(q, resps[worst], false),
		{name: "stindex.query", layer: "stindex", d: st},
	}})
}

// queryOp traces one query through every level. hot marks a repeated shape
// the serving plane answers from its cache: the levels stop there.
func (t *tracer) queryOp(name string, kind int, q any, hot bool) {
	pick := func(n int) any {
		if hot {
			return q
		}
		return variant(q, n)
	}
	t.warm()
	at := time.Now()
	resp, d0 := t.call(t.e.coord.Addr(), pick(0))
	root := &node{name: "client.call", layer: "other", d: d0, kids: []*node{t.hop(q, resp, true)}}

	var handled bool
	serve := &node{name: "serve.intercept", layer: "serve"}
	serve.d = timed(func() { _, handled = t.e.front.Intercept(t.ctx, pick(1)) })
	root.kids = append(root.kids, serve)
	if hot {
		t.obs("serve.hit_us", serve.d)
		t.add(name, at, root)
		return
	}
	d2, asked, pruned, ok := t.coordCall(pick(2))
	if !handled {
		serve.d += d2 // not a cacheable kind: the gateway passes it on to the coordinator
	}
	if ok {
		t.series["core.asked_per_query"] = append(t.series["core.asked_per_query"], float64(asked))
		t.series["core.pruned_per_query"] = append(t.series["core.pruned_per_query"], float64(pruned))
		t.r.counts[name+".asked"] += int64(asked)
		t.r.counts[name+".pruned"] += int64(pruned)
	}
	t.r.counts[name+".records"] += int64(recordsIn(resp))
	serve.kids = []*node{{name: "core.query", layer: "core.coord", d: d2, kids: []*node{t.workerQuery(kind, q)}}}
	t.add(name, at, root)
}

// recordsIn counts the records, neighbours or cells an answer carries.
func recordsIn(resp any) int {
	switch m := resp.(type) {
	case *wire.RangeResult:
		return len(m.Records)
	case *wire.KNNResult:
		return len(m.Records)
	case *wire.CountResult:
		return m.Count
	case *wire.HeatmapResult:
		return len(m.Cells)
	}
	return 0
}

// traceQueries replays a fixed, seeded sample of each query kind.
func traceQueries(e *env, w *workload, cfg config, r *result) (*tracer, error) {
	t, err := newTracer(e, r, "range", "RangeQuery")
	if err != nil {
		return nil, err
	}
	t.resilientOverhead()
	rng := rand.New(rand.NewSource(cfg.seed*1000 + 999))
	var done [numKinds]int
	want := [numKinds]int{cfg.sample(tracedPerKind), cfg.sample(tracedPerKind), cfg.sample(tracedPerKind), cfg.sample(tracedHeatmap), cfg.sample(tracedWide)}
	for seq := 0; done != want; seq++ {
		q := genQuery(rng, e.tr, seq, 1<<24+seq*8)
		if done[q.kind] == want[q.kind] {
			continue
		}
		done[q.kind]++
		t.queryOp(kindNames[q.kind], q.kind, q.req, false)
	}
	t.allocsPerRoundtrip(&wire.CountQuery{QueryID: 1, Rect: e.tr.world, Window: fullWindow(e.tr, 0)}, &wire.CountResult{QueryID: 1, Count: 12345, Asked: 4, Answered: 4})
	return t, t.err
}

// shadow mirrors the parts of a worker the benchmark cannot reach from
// outside: an associator warmed with the identities that worker has seen.
type shadow struct {
	assoc *vision.Associator
	ns    uint64
}

// shadows builds one associator per worker address holding what setup
// enrolled in the worker's own: each identity it meets in the stream, once.
func (t *tracer) shadows(featured bool) map[string]*shadow {
	out := map[string]*shadow{}
	for i, w := range t.e.workers {
		out[w.Addr()] = &shadow{assoc: vision.NewAssociator(0.75), ns: uint64(i+1) << 40}
	}
	if featured {
		for addr, dets := range t.e.firstSightings() {
			for _, d := range dets {
				out[addr].assoc.Associate(d.Feature)
			}
		}
	}
	return out
}

// split groups one tick's observations per owning worker, each group in
// (camera, ObsID) order — what the Ingester and the coordinator proxy send.
func (t *tracer) split(dets []vision.Detection) map[string][]wire.Observation {
	by := map[string][]wire.Observation{}
	for _, o := range toObservations(dets) {
		if addr, ok := t.e.coord.RouteFor(o.Camera); ok {
			by[addr] = append(by[addr], o)
		}
	}
	for _, obs := range by {
		sort.Slice(obs, func(i, j int) bool {
			if obs[i].Camera != obs[j].Camera {
				return obs[i].Camera < obs[j].Camera
			}
			return obs[i].ObsID < obs[j].ObsID
		})
	}
	return by
}

// workerIngest traces one batch sent straight to its owning worker. The
// layers inside the worker are measured beside it: association on the shadow
// associator, and index insertion by inserting the following tick's records
// for the same worker (next) straight into the worker's own store, so seal
// and eviction are paid at the store's real size.
func (t *tracer) workerIngest(addr string, sh *shadow, obs, next []wire.Observation, sample bool) *node {
	batch := &wire.IngestBatch{Observations: obs}
	t.warm()
	resp, d := t.call(addr, batch)
	n := &node{name: "worker.call", layer: "core.worker", d: d, kids: []*node{t.hop(batch, resp, sample)}}
	t.obs("core.worker_ingest_us", d)

	ids := make([]uint64, len(next))
	if len(obs) > 0 && len(obs[0].Feature) > 0 {
		assoc := timed(func() {
			for i := range obs {
				sh.assoc.Associate(vision.Feature(obs[i].Feature))
			}
		})
		n.kids = append(n.kids, &node{name: "vision.associate", layer: "vision", d: assoc})
		t.obs("vision.associate_us", assoc/time.Duration(len(obs)))
		for i := range next {
			id, _ := sh.assoc.Associate(vision.Feature(next[i].Feature))
			ids[i] = sh.ns | id
		}
	}
	st := t.e.workerFor(addr).Store()
	ins := timed(func() {
		for i, o := range next {
			st.Insert(stindex.Record{ObsID: o.ObsID, TargetID: ids[i], Camera: o.Camera, Pos: o.Pos, Time: o.Time})
		}
	})
	if len(next) > 0 {
		ins = ins * time.Duration(len(obs)) / time.Duration(len(next))
		t.obs("stindex.insert_us", ins/time.Duration(max(len(obs), 1)))
	}
	n.kids = append(n.kids, &node{name: "stindex.insert", layer: "stindex", d: ins})
	return n
}

func (t *tracer) gallerySize(shs map[string]*shadow) {
	total := 0
	for _, sh := range shs {
		total += sh.assoc.Gallery().Len()
	}
	t.set("vision.gallery_size", float64(total)/float64(len(shs)), len(shs))
}

// traceIngest continues the replayed stream two ticks at a time: the first
// tick's per-worker batches are sent one at a time, each a traced operation;
// the second goes straight into the stores. Every worker sees every tick, so
// seal and eviction sweeps recur at the cadence of the untraced stream.
func traceIngest(e *env, w *workload, cfg config, r *result) (*tracer, error) {
	t, err := newTracer(e, r, "ingest", "IngestBatch")
	if err != nil {
		return nil, err
	}
	t.resilientOverhead()
	shs := t.shadows(w.featured)
	var sample *wire.IngestBatch
	for len(t.ops) < cfg.sample(tracedPerKind) {
		cur := t.split(e.tr.step(e.next, nil))
		nxt := t.split(e.tr.step(e.next+1, nil))
		e.next += 2
		for _, wk := range e.workers {
			addr := wk.Addr()
			if len(cur[addr]) == 0 {
				continue
			}
			at := time.Now()
			t.add("ingest", at, t.workerIngest(addr, shs[addr], cur[addr], nxt[addr], true))
			sample = &wire.IngestBatch{Observations: cur[addr]}
		}
	}
	t.gallerySize(shs)
	t.allocsPerRoundtrip(sample, &wire.IngestAck{Accepted: len(sample.Observations)})
	return t, t.err
}

// traceStorm replays the storm's three operations one at a time: a proxied
// featured tick, a hot query, a poll.
func traceStorm(e *env, w *workload, cfg config, r *result) (*tracer, error) {
	t, err := newTracer(e, r, "ingest", "IngestBatch")
	if err != nil {
		return nil, err
	}
	t.resilientOverhead()
	shs := t.shadows(true)
	hot := hotQueries(e.tr)
	var sample *wire.IngestBatch
	for j := 0; j < cfg.sample(tracedPerKind); j++ {
		if j < cfg.sample(tracedStormTicks) {
			// Three consecutive ticks: one through the proxy, one straight to
			// the workers, one straight into their stores.
			batch, _ := e.stormTick(e.next, nil)
			direct := t.split(e.tr.step(e.next+1, nil))
			store := t.split(e.tr.step(e.next+2, nil))
			e.next += 3
			t.warm()
			at := time.Now()
			resp, d := t.call(e.coord.Addr(), batch)
			var worst *node
			var calls []time.Duration
			for addr, obs := range direct {
				n := t.workerIngest(addr, shs[addr], obs, store[addr], false)
				calls = append(calls, n.d)
				if worst == nil || n.d > worst.d {
					worst = n
				}
			}
			t.add("ingest", at, &node{name: "proxy.call", layer: "core.coord", d: d, kids: []*node{t.hop(batch, resp, true), fanOut(calls, worst)}})
			sample = batch
		}
		q := hot[j%len(hot)]
		t.queryOp("hot_query", 0, q, true)

		t.warm()
		at := time.Now()
		poll := &wire.PollUpdates{SubID: e.subs[(2*j)%len(e.subs)]}
		resp, d := t.call(e.coord.Addr(), poll)
		inproc := timed(func() { e.front.Intercept(t.ctx, &wire.PollUpdates{SubID: e.subs[(2*j+1)%len(e.subs)]}) })
		t.obs("serve.poll_us", inproc)
		t.add("poll", at, &node{name: "client.call", layer: "other", d: d, kids: []*node{
			t.hop(poll, resp, true),
			{name: "serve.poll", layer: "serve", d: inproc},
		}})
	}
	t.gallerySize(shs)
	t.allocsPerRoundtrip(sample, &wire.IngestAck{Accepted: len(sample.Observations)})
	return t, t.err
}
