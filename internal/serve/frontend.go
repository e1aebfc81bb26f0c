// Package serve is the coordinator's front-end serving plane for heavy read
// traffic. It installs as a core.Gateway and adds three things the
// coordinator itself stays ignorant of:
//
//   - Shared continuous-query fan-out: N subscribers to the same canonical
//     query shape share ONE worker-side install, each with its own bounded
//     buffer and slow-consumer eviction. The fan-out table is the only record
//     of who shares an install; the coordinator sees one plain
//     InstallContinuous per shape and one RemoveContinuous when its last
//     subscriber leaves. 64 dashboards watching the same geofence cost one
//     evaluation per observation instead of 64.
//   - An epoch-keyed result cache for repeated Range/Count/Heatmap queries:
//     entries are keyed on the canonicalized query, stamped with the
//     coordinator epoch, bounded by an LRU byte budget and a TTL, and the
//     whole cache invalidates the moment the epoch moves (a reassignment
//     changes what every worker owns, so every cached answer is suspect).
//   - Admission control with priority shedding: ingest and tracking RPCs are
//     never offered to the serving plane and thus never shed; query load
//     degrades by priority class (background first, interactive at twice the
//     watermark, control never), with per-tenant token-bucket quotas.
//
// Everything is surfaced as serve.* metrics through the coordinator registry
// (and thus internal/obs and `stcamctl top`).
package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/clock"
	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/metrics"
	"stcam/internal/wire"
)

// Options configures the serving plane. Zero values select the defaults.
type Options struct {
	// CacheBytes is the result-cache LRU budget. 0 selects 8 MiB; negative
	// disables caching.
	CacheBytes int64
	// CacheTTL bounds entry freshness inside one epoch. 0 selects 2s.
	CacheTTL time.Duration
	// QuotaRate is the per-tenant sustained queries/sec. 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket depth. 0 selects max(16, 2*QuotaRate).
	QuotaBurst int
	// MaxInflight is the background-priority shed watermark; interactive and
	// untagged traffic sheds at twice this. 0 selects 256.
	MaxInflight int
	// SubscriberBuffer is the per-subscriber pending-update bound; a
	// subscriber that stays full long enough to drop this many more updates
	// is evicted. 0 selects 256.
	SubscriberBuffer int
	// Clock injects time for the cache TTL and quota refill (tests).
	Clock clock.Clock
}

func (o *Options) fill() {
	if o.CacheBytes == 0 {
		o.CacheBytes = 8 << 20
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = 2 * time.Second
	}
	if o.QuotaBurst == 0 {
		o.QuotaBurst = int(math.Max(16, 2*o.QuotaRate))
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.SubscriberBuffer == 0 {
		o.SubscriberBuffer = 256
	}
	if o.Clock == nil {
		o.Clock = clock.Wall
	}
}

// Frontend is the serving plane. Construct with New; it registers itself as
// the coordinator's gateway.
type Frontend struct {
	coord *core.Coordinator
	opts  Options
	reg   *metrics.Registry
	clk   clock.Clock

	cache *resultCache

	inflight atomic.Int64

	qmu    sync.Mutex
	quotas map[string]*bucket

	nextSub atomic.Uint64
	fmu     sync.Mutex
	fans    map[string]*fanout     // canonical shape -> fan-out
	subs    map[uint64]*subscriber // subscriber id -> subscriber
}

// New builds the serving plane over the coordinator and installs it as the
// coordinator's gateway.
func New(coord *core.Coordinator, opts Options) *Frontend {
	opts.fill()
	f := &Frontend{
		coord:  coord,
		opts:   opts,
		reg:    coord.Metrics(),
		clk:    opts.Clock,
		quotas: make(map[string]*bucket),
		fans:   make(map[string]*fanout),
		subs:   make(map[uint64]*subscriber),
	}
	f.cache = newResultCache(opts.CacheBytes, opts.CacheTTL, opts.Clock, f.reg)
	coord.SetGateway(f)
	return f
}

var _ core.Gateway = (*Frontend)(nil)

// Intercept implements core.Gateway: cacheable read queries and the
// subscriber protocol are handled here; everything else — ingest, tracking,
// registration, heartbeats, the streaming query kinds — falls through to the
// coordinator untouched, which is what makes "ingest is never shed" a
// structural property rather than a policy.
func (f *Frontend) Intercept(ctx context.Context, req any) (any, bool) {
	switch m := req.(type) {
	case *wire.RangeQuery, *wire.CountQuery, *wire.HeatmapQuery:
		return f.serveQuery(ctx, m)
	case *wire.Subscribe:
		return f.subscribe(ctx, m)
	case *wire.PollUpdates:
		return f.poll(m)
	case *wire.Unsubscribe:
		return f.unsubscribe(ctx, m)
	}
	return nil, false
}

// serveQuery: admission, then cache, then the coordinator's scatter path.
func (f *Frontend) serveQuery(ctx context.Context, req any) (any, bool) {
	if resp, ok := f.admit(ctx, ""); !ok {
		return resp, true
	}
	defer f.inflight.Add(-1)
	epoch := f.coord.Epoch()
	key := canonicalQueryKey(req)
	if key != "" {
		if resp, ok := f.cache.get(key, epoch); ok {
			f.reg.Counter("serve.cache.hits").Inc()
			return patchQueryID(resp, req), true
		}
		f.reg.Counter("serve.cache.misses").Inc()
	}
	resp, cacheable := f.execute(ctx, req)
	if key != "" && cacheable {
		f.cache.put(key, epoch, resp)
	}
	return patchQueryID(resp, req), true
}

// execute answers one query through the coordinator's exported methods.
// cacheable is false for errors and for partial answers (a degraded scatter
// must not pin its shortfall into the cache for a full TTL).
func (f *Frontend) execute(ctx context.Context, req any) (resp any, cacheable bool) {
	switch m := req.(type) {
	case *wire.RangeQuery:
		enc, meta, err := f.coord.RangeMeta(ctx, m.Rect, m.Window, m.Limit)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, false
		}
		return &wire.RangeResult{Encoded: enc, Truncated: meta.Truncated, Asked: meta.Asked, Answered: meta.Answered}, meta.Answered == meta.Asked
	case *wire.CountQuery:
		n, meta, err := f.coord.CountMeta(ctx, m.Rect, m.Window)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, false
		}
		return &wire.CountResult{Count: n, Asked: meta.Asked, Answered: meta.Answered}, meta.Answered == meta.Asked
	case *wire.HeatmapQuery:
		cells, meta, err := f.coord.HeatmapMeta(ctx, m.Rect, m.Window, m.CellSize)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, false
		}
		return &wire.HeatmapResult{CellSize: m.CellSize, Cells: cells}, meta.Answered == meta.Asked
	}
	return &wire.Error{Code: wire.CodeBadRequest, Message: "serve: unhandled query"}, false
}

// patchQueryID stamps the caller's per-request nonce onto a (possibly
// cached) response without mutating the cached value.
func patchQueryID(resp any, req any) any {
	var qid uint64
	switch m := req.(type) {
	case *wire.RangeQuery:
		qid = m.QueryID
	case *wire.CountQuery:
		qid = m.QueryID
	case *wire.HeatmapQuery:
		qid = m.QueryID
	}
	switch r := resp.(type) {
	case *wire.RangeResult:
		cp := *r
		cp.QueryID = qid
		return &cp
	case *wire.CountResult:
		cp := *r
		cp.QueryID = qid
		return &cp
	case *wire.HeatmapResult:
		cp := *r
		cp.QueryID = qid
		return &cp
	}
	return resp
}

// admit applies priority shedding then the tenant quota. On admission the
// inflight count has been incremented and the caller owns the decrement; on
// denial it returns the error response to send.
func (f *Frontend) admit(ctx context.Context, tenant string) (any, bool) {
	pri := cluster.PriorityFrom(ctx)
	n := f.inflight.Add(1)
	watermark := int64(f.opts.MaxInflight)
	var over bool
	switch pri {
	case cluster.PriorityControl:
		over = false
	case cluster.PriorityBackground:
		over = n > watermark
	default: // untagged and interactive shed together, at twice the watermark
		over = n > 2*watermark
	}
	if over {
		f.inflight.Add(-1)
		f.reg.Counter("serve.shed." + pri.String()).Inc() //lint:allow metricname per-class shed series; cardinality bounded by the closed Priority enum
		return &wire.Error{Code: wire.CodeShed, Message: "serve: over capacity (" + pri.String() + "); retry with backoff"}, false
	}
	if tenant == "" {
		tenant = cluster.TenantFrom(ctx)
	}
	if tenant != "" && f.opts.QuotaRate > 0 && !f.takeToken(tenant) {
		f.inflight.Add(-1)
		f.reg.Counter("serve.quota.denied").Inc()
		return &wire.Error{Code: wire.CodeOverQuota, Message: "serve: tenant " + tenant + " over query quota"}, false
	}
	return nil, true
}

// bucket is one tenant's token bucket, refilled lazily on each take.
type bucket struct {
	tokens float64
	last   time.Time
}

func (f *Frontend) takeToken(tenant string) bool {
	now := f.clk.Now()
	f.qmu.Lock()
	defer f.qmu.Unlock()
	b, ok := f.quotas[tenant]
	if !ok {
		b = &bucket{tokens: float64(f.opts.QuotaBurst), last: now}
		f.quotas[tenant] = b
	}
	b.tokens = math.Min(float64(f.opts.QuotaBurst),
		b.tokens+now.Sub(b.last).Seconds()*f.opts.QuotaRate)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
