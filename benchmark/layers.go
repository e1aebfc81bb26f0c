package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// The traced pass replays a fixed sample of operations one at a time, after
// the timed window, through nested levels measured from outside the program:
// the client's TCP call, the same request handed to the serving plane and to
// the coordinator in process, sent straight to a worker, run on the worker's
// store, and the codec and an echo round trip of the very same messages.
// Each level is one node; a node's self time is its duration minus what its
// children cover, so the self times of one operation sum to its end-to-end
// time exactly. The levels are measured back to back, not simultaneously, so
// a child is clipped to its parent and laid out inside it.

// node is one measured level of one traced operation.
type node struct {
	name  string
	layer string // the module the node's self time is charged to
	d     time.Duration
	kids  []*node
}

// tracedOp is one replayed operation: its kind and its tree of levels.
type tracedOp struct {
	kind string
	at   time.Time
	root *node
}

// span is one node laid out on the operation's timeline, as written to the
// trace file. Times are microseconds since the pass began.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the operation's root
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// tracer collects the traced operations and the raw per-layer samples.
type tracer struct {
	e       *env
	r       *result
	ctx     context.Context
	began   time.Time
	primary string // the op kind the workload's op_p50_ms measures
	rpcKind string // the worker-side request kind behind the primary op
	ops     []tracedOp
	series  map[string][]float64 // per-layer metric name → samples
	echo    *echoServer
	flat    []span
	err     error // first failed call of the pass

	encNS, decNS, wireBytes, wireMsgs int64
}

func newTracer(e *env, r *result, primary, rpcKind string) (*tracer, error) {
	echo, err := newEchoServer()
	if err != nil {
		return nil, err
	}
	return &tracer{
		e: e, r: r, ctx: context.Background(), began: time.Now(), primary: primary, rpcKind: rpcKind,
		series: map[string][]float64{}, echo: echo,
	}, nil
}

// call makes one timed call from the client transport. The untraced window
// ran the same requests cleanly, so a failure here is the environment's; the
// first one is kept and fails the run.
func (t *tracer) call(addr string, req any) (resp any, d time.Duration) {
	var err error
	d = timed(func() { resp, err = t.e.client.Call(t.ctx, addr, req) })
	if err != nil && t.err == nil {
		t.err = fmt.Errorf("traced %T to %s: %w", req, addr, err)
	}
	return resp, d
}

func (t *tracer) obs(name string, d time.Duration) {
	t.series[name] = append(t.series[name], us(d))
}

func (t *tracer) set(name string, v float64, n int) { t.r.setLayer(name, v, n) }

func (t *tracer) add(kind string, at time.Time, root *node) {
	t.ops = append(t.ops, tracedOp{kind, at, root})
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	s := time.Now()
	fn()
	return time.Since(s)
}

// echoServer answers every request with a preset response, so a call to it
// costs what the transport and codec cost for that pair of messages and
// nothing else.
type echoServer struct {
	tr   *cluster.TCP
	srv  cluster.Server
	resp atomic.Pointer[any]
}

func newEchoServer() (*echoServer, error) {
	s := &echoServer{tr: cluster.NewTCP()}
	srv, err := s.tr.Serve("127.0.0.1:0", func(context.Context, string, any) (any, error) {
		return *s.resp.Load(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("echo server: %w", err)
	}
	s.srv = srv
	return s, nil
}

func (s *echoServer) close() {
	s.srv.Close()
	s.tr.Close()
}

// codecOnce times one message through the codec the way a TCP hop runs it:
// encode into a pooled buffer, decode into a fresh message.
func codecOnce(m any) (enc, dec time.Duration, size int) {
	kind := wire.KindOf(m)
	buf := wire.BorrowBuf()
	defer buf.Release()
	var b []byte
	var err error
	enc = timed(func() { b, err = wire.AppendMarshal(buf.B[:0], kind, m) })
	if err != nil {
		panic(err) // the message just crossed the real wire
	}
	buf.B = b
	dec = timed(func() { _, err = wire.Unmarshal(kind, b) })
	if err != nil {
		panic(err)
	}
	return enc, dec, len(b)
}

// hop measures what one TCP hop costs for this request/response pair: an
// echo round trip from the client transport, with the codec's part of it —
// both messages, encoded and decoded once each — as its child. The wire.*
// metrics are taken over the client's own hop only (sample): which worker's
// answer a deeper hop carries depends on which worker happened to be slowest,
// and wire.bytes_per_msg is meant to repeat exactly for one seed.
func (t *tracer) hop(req, resp any, sample bool) *node {
	if resp == nil {
		return &node{name: "tcp.hop", layer: "cluster"} // the call this hop mirrors failed
	}
	t.echo.resp.Store(&resp)
	_, rtt := t.call(t.echo.srv.Addr(), req)
	var codec time.Duration
	for _, m := range []any{req, resp} {
		enc, dec, size := codecOnce(m)
		codec += enc + dec
		if sample {
			t.encNS += int64(enc)
			t.decNS += int64(dec)
			t.wireBytes += int64(size)
			t.wireMsgs++
		}
	}
	t.obs("cluster.rtt_us", rtt)
	t.obs("cluster.self_us", max(rtt-codec, 0))
	return &node{name: "tcp.hop", layer: "cluster", d: rtt, kids: []*node{{name: "wire.codec", layer: "wire", d: codec}}}
}

// warm makes one untimed echo call. In the untraced window calls follow each
// other closely and find the transport's goroutines running; a traced call
// that follows in-process work would find them parked and pay their wake-up.
func (t *tracer) warm() {
	var resp any = &wire.AssignAck{}
	t.echo.resp.Store(&resp)
	t.call(t.echo.srv.Addr(), &wire.StatsQuery{})
}

// resilientOverhead is the extra cost of the retry/breaker decorator every
// node wraps around its outbound calls, on a small message.
func (t *tracer) resilientOverhead() {
	var resp any = &wire.CountResult{Count: 1}
	t.echo.resp.Store(&resp)
	res := cluster.NewResilient(t.e.client, cluster.Policy{})
	var raw, wrapped []time.Duration
	req := &wire.CountQuery{QueryID: 1}
	for i := 0; i < tracedPerKind; i++ {
		_, d := t.call(t.echo.srv.Addr(), req)
		raw = append(raw, d)
		wrapped = append(wrapped, timed(func() { res.Call(t.ctx, t.echo.srv.Addr(), req) })) //nolint:errcheck // the same call just succeeded unwrapped
	}
	t.set("cluster.resilient_overhead_us", us(quantile(wrapped, 0.5)-quantile(raw, 0.5)), len(raw))
}

// allocsPerRoundtrip counts heap allocations of one encode+decode of the
// sampled message pair.
func (t *tracer) allocsPerRoundtrip(req, resp any) {
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		codecOnce(req)
		codecOnce(resp)
	}
	runtime.ReadMemStats(&after)
	t.set("wire.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/rounds, rounds)
}

// flatten lays n and its subtree out from start, clipping each child to what
// is left of its parent, and appends the spans in depth-first order.
func flatten(out *[]span, n *node, kind string, op, parent int, start time.Duration) {
	id := len(*out)
	*out = append(*out, span{Op: op, ID: id, Parent: parent, Kind: kind, Name: n.name, Layer: n.layer})
	self := n.d
	for _, k := range n.kids {
		k.d = min(k.d, self)
		self -= k.d
	}
	at := start + self/2 // request path before the children, response path after
	for _, k := range n.kids {
		flatten(out, k, kind, op, id, at)
		at += k.d
	}
	s := &(*out)[id]
	s.Start, s.End, s.Self = us(start), us(start+n.d), us(self)
}

// spans lays every traced operation out on the pass's timeline.
func (t *tracer) spans() []span {
	if t.flat == nil {
		for i, op := range t.ops {
			flatten(&t.flat, op.root, op.kind, i, -1, op.at.Sub(t.began))
		}
	}
	return t.flat
}

// layerTable is one op kind's attribution: the median self time each layer
// contributes, against the traced and untraced end-to-end medians.
type layerTable struct {
	kind       string
	n          int
	e2e        float64 // traced end-to-end median, µs
	untraced   float64 // untraced concurrent median, µs (0 when the window has no such op)
	rows       []layerRow
	residual   float64 // e2e − Σ rows
	contention float64 // untraced − traced
}

type layerRow struct {
	layer string
	self  float64
}

var layerOrder = []string{"wire", "cluster", "serve", "core.coord", "core.worker", "vision", "stindex", "other"}

func (t *tracer) tables(spans []span, untraced map[string]time.Duration) []layerTable {
	type opSelf struct {
		kind  string
		e2e   float64
		layer map[string]float64
	}
	ops := make([]opSelf, len(t.ops))
	for _, s := range spans {
		o := &ops[s.Op]
		if s.Parent == -1 {
			o.kind, o.e2e, o.layer = s.Kind, s.End-s.Start, map[string]float64{}
		}
		o.layer[s.Layer] += s.Self
	}
	var kinds []string
	byKind := map[string][]opSelf{}
	for _, o := range ops {
		if _, seen := byKind[o.kind]; !seen {
			kinds = append(kinds, o.kind)
		}
		byKind[o.kind] = append(byKind[o.kind], o)
	}
	var out []layerTable
	for _, k := range kinds {
		tb := layerTable{kind: k, n: len(byKind[k]), untraced: us(untraced[k])}
		var e2e []float64
		for _, o := range byKind[k] {
			e2e = append(e2e, o.e2e)
		}
		tb.e2e = medianF(e2e)
		sum := 0.0
		for _, l := range layerOrder {
			var vs []float64
			present := false
			for _, o := range byKind[k] {
				v, ok := o.layer[l]
				present = present || ok
				vs = append(vs, v)
			}
			if !present {
				continue
			}
			m := medianF(vs)
			tb.rows = append(tb.rows, layerRow{l, m})
			sum += m
		}
		tb.residual = tb.e2e - sum
		if tb.untraced > 0 {
			tb.contention = tb.untraced - tb.e2e
		}
		out = append(out, tb)
	}
	return out
}

func (tb layerTable) print() {
	fmt.Printf("  -- layer table: %s  (n=%d traced one at a time)\n", tb.kind, tb.n)
	for _, r := range tb.rows {
		fmt.Printf("     %-12s %12.1f us  %5.1f %%\n", r.layer, r.self, 100*r.self/tb.e2e)
	}
	fmt.Printf("     %-12s %12.1f us  %5.1f %%\n", "residual", tb.residual, 100*tb.residual/tb.e2e)
	fmt.Printf("     %-12s %12.1f us  traced end-to-end median\n", "total", tb.e2e)
	if tb.untraced > 0 {
		fmt.Printf("     untraced concurrent median %.1f us → contention %.1f us, traced/untraced %.3f\n", tb.untraced, tb.contention, tb.e2e/tb.untraced)
	}
}

// summarize turns the pass into the per-layer metrics and the layer tables.
func (t *tracer) summarize(e *env, r *result) {
	spans := t.spans()
	r.tables = t.tables(spans, r.untraced)
	// Self times per layer over every traced op feed the core.* self metrics.
	for _, s := range spans {
		switch {
		case s.Layer == "core.worker":
			t.series["core.worker_self_us"] = append(t.series["core.worker_self_us"], s.Self)
		case s.Name == "core.query":
			t.series["core.scatter_us"] = append(t.series["core.scatter_us"], s.Self)
		case s.Name == "proxy.call":
			t.series["core.proxy_ingest_us"] = append(t.series["core.proxy_ingest_us"], s.Self)
		case s.Name == "serve.intercept" && e.subs == nil:
			t.series["serve.miss_overhead_us"] = append(t.series["serve.miss_overhead_us"], s.Self)
		}
	}
	if t.wireMsgs > 0 {
		t.set("wire.encode_us", float64(t.encNS)/1e3/float64(t.wireMsgs), int(t.wireMsgs))
		t.set("wire.decode_us", float64(t.decNS)/1e3/float64(t.wireMsgs), int(t.wireMsgs))
		t.set("wire.bytes_per_msg", float64(t.wireBytes)/float64(t.wireMsgs), int(t.wireMsgs))
	}
	for _, tb := range r.tables {
		if tb.kind != t.primary {
			continue
		}
		t.set("trace.e2e_p50_us", tb.e2e, tb.n)
		t.set("trace.residual_ratio", tb.residual/tb.e2e, tb.n)
		t.set("contention_us", tb.contention, tb.n)
		if tb.untraced > 0 {
			t.set("trace.overhead_ratio", tb.e2e/tb.untraced-1, tb.n)
		}
	}
	// The workers' own per-kind service-time histograms cross-check the
	// outside view of the worker level (their mean: the registry's
	// percentiles are bucket midpoints and read the same on every run).
	var served []float64
	for _, w := range e.workers {
		if h, ok := w.Metrics().Snapshot().Histograms["rpc.serve."+t.rpcKind]; ok {
			served = append(served, us(h.Mean))
		}
	}
	t.set("core.worker_rpc_mean_us", medianF(served), len(served))
	for _, d := range perLayerDefs {
		m, ok := r.fixedLayers[d.name]
		if vs := t.series[d.name]; !ok {
			m = metric{Name: d.name, Unit: d.unit, Value: medianF(vs), N: len(vs)}
			if d.unit == "count" {
				m.Value = meanF(vs) // fan-out counts: a median of small integers hides the mix
			}
		}
		r.layers = append(r.layers, m)
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace."+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// windowCounters is what the nodes' own registries and transports counted;
// the difference across the timed window gives the count-type layer metrics.
type windowCounters struct {
	calls, errors, retries              int64
	hits, misses, shed, dropped         int64
	decodes, rollupHits                 int64
	sealedBytes, sealedRecords, scatter int64
}

func (e *env) counters() windowCounters {
	var c windowCounters
	for _, tr := range append([]*cluster.TCP{e.client}, e.nodeTr...) {
		s := tr.Stats()
		c.calls += s.Calls
		c.errors += s.Errors
	}
	snap := e.coord.Metrics().Snapshot()
	c.retries = snap.Counters["rpc.retries"]
	c.hits, c.misses = snap.Counters["serve.cache.hits"], snap.Counters["serve.cache.misses"]
	c.dropped = snap.Counters["serve.fanout.dropped"]
	c.scatter = snap.Counters["scatter.errors"]
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "serve.shed.") {
			c.shed += v
		}
	}
	for _, w := range e.workers {
		c.retries += w.Metrics().Snapshot().Counters["rpc.retries"]
		ts := w.Store().TierStats()
		c.decodes += int64(ts.QueryDecodes)
		c.rollupHits += int64(ts.RollupHits)
		c.sealedBytes += ts.SealedBytes
		c.sealedRecords += int64(ts.SealedRecords)
	}
	return c
}

// windowLayers derives the count-type per-layer metrics from the counters
// before and after the timed window.
func (r *result) windowLayers(before, after windowCounters) {
	put, ops := r.setLayer, r.attempted
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	put("cluster.calls_per_op", ratio(after.calls-before.calls, int64(ops)), ops)
	put("cluster.retries", float64(after.retries-before.retries), ops)
	put("cluster.errors", float64(after.errors-before.errors+after.scatter-before.scatter), ops)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	put("serve.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	put("serve.shed", float64(after.shed-before.shed), ops)
	put("serve.sub_dropped", float64(after.dropped-before.dropped), ops)
	decodes, rollups := after.decodes-before.decodes, after.rollupHits-before.rollupHits
	put("stindex.decodes_per_query", ratio(decodes, int64(ops)), ops)
	put("stindex.rollup_hit_ratio", ratio(rollups, rollups+decodes), int(rollups+decodes))
	put("stindex.sealed_bytes_per_obs", ratio(after.sealedBytes, after.sealedRecords), int(after.sealedRecords))
}
