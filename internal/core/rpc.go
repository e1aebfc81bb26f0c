package core

import (
	"stcam/internal/cluster"
	"stcam/internal/metrics"
	"stcam/internal/wire"
)

// resilientFor wraps a node's transport in the resilience layer for
// outbound calls, mirroring the retry/timeout/breaker counters into the
// node's metrics registry. A transport that is already Resilient is used
// as-is, so a caller can supply its own policy (and avoid double-wrapping).
func resilientFor(tr cluster.Transport, opts Options, reg *metrics.Registry) *cluster.Resilient {
	if r, ok := tr.(*cluster.Resilient); ok {
		return r
	}
	return cluster.NewResilient(tr, opts.RetryPolicy, cluster.WithRPCMetrics(reg), cluster.WithClock(opts.Clock))
}

// QueryMeta reports how complete one scatter-gather answer is. Pruned
// workers are not counted in Asked: their heartbeat sketch proved they held
// nothing for the query, so skipping them loses no data and does not degrade
// completeness.
type QueryMeta struct {
	Asked     int  // workers the query fanned out to
	Answered  int  // workers that answered before their deadline
	Pruned    int  // workers skipped because their sketch proved them empty
	Truncated bool // Range and Filter only: the answer stopped at its limit with matches left over
}

// Completeness returns Answered/Asked in [0, 1]; an empty fan-out is
// complete by definition.
func (m QueryMeta) Completeness() float64 {
	if m.Asked == 0 {
		return 1
	}
	return float64(m.Answered) / float64(m.Asked)
}

// histStatsOf converts registry histogram snapshots into their wire
// summaries (durations as nanoseconds), for StatsResult payloads.
func histStatsOf(hists map[string]metrics.HistSnapshot) map[string]wire.HistStats {
	if len(hists) == 0 {
		return nil
	}
	out := make(map[string]wire.HistStats, len(hists))
	for name, s := range hists {
		out[name] = wire.HistStats{
			Count: s.Count,
			Sum:   int64(s.Sum),
			Min:   int64(s.Min),
			Max:   int64(s.Max),
			P50:   int64(s.P50),
			P95:   int64(s.P95),
			P99:   int64(s.P99),
		}
	}
	return out
}

// mirrorRPCStats copies the resilience-layer transport counters into the
// registry as gauges, so one stats scrape (or /metrics scrape) carries the
// RPC picture alongside the node's own counters. Retries, timeouts, and
// breaker transitions are already mirrored as counters at event time by the
// Resilient layer itself; this adds the transport-level call/error/byte
// totals.
func mirrorRPCStats(reg *metrics.Registry, s cluster.TransportStats) {
	reg.Gauge("rpc.calls").Set(s.Calls)
	reg.Gauge("rpc.errors").Set(s.Errors)
	reg.Gauge("rpc.bytes_out").Set(s.BytesOut)
	reg.Gauge("rpc.bytes_in").Set(s.BytesIn)
	// In-flight is already tracked live as the rpc.inflight gauge by the
	// Resilient layer; mirroring s.InFlight here would just duplicate it.
}
