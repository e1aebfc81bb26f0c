// Package core implements the framework proper: the coordinator that manages
// camera ownership, routes queries, and orchestrates cross-camera tracking;
// and the workers that ingest detection streams into spatio-temporal indexes,
// answer sub-queries, maintain continuous queries, and execute target-centric
// tracking with vision-graph-scoped handoff.
//
// All time-dependent protocol logic (track loss, prime expiry, continuous
// windows) runs on *observation* time, so simulations are deterministic and
// replayable; only liveness (heartbeats, sweeps) uses the wall clock.
package core

import (
	"time"

	"stcam/internal/clock"
	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// Options tunes the framework. The zero value selects the documented
// defaults.
type Options struct {
	// AssocThreshold is the cosine similarity above which two appearance
	// features are considered the same identity (default 0.75).
	AssocThreshold float64
	// LostAfter is the observation-time silence after which a worker declares
	// a tracked target gone from its cameras and a handoff begins
	// (default 3s).
	LostAfter time.Duration
	// PrimeTTL is how long (observation time) a handoff prime stays armed on
	// neighbor cameras before expiring (default 30s).
	PrimeTTL time.Duration
	// Retention bounds the observation store, and with it the worker's
	// identity gallery: an identity unseen for this long has no records left
	// and is dropped. 0 keeps everything.
	Retention time.Duration
	// CellSize is the spatial index cell in meters (default 50).
	CellSize float64
	// SealHorizon is the span of the worker store's hot tier: observations
	// older than latest − SealHorizon are compacted into immutable
	// delta-compressed chunks, cutting resident bytes per observation so a
	// fixed memory budget holds a much longer history (see R17). Each chunk
	// keeps its record count, time span and bounding rect, so Count/Heatmap
	// windows covering a chunk are answered without decoding it (default
	// 2 min).
	SealHorizon time.Duration
	// BroadcastHandoff switches tracking from vision-graph-scoped priming to
	// priming every camera on every worker — the baseline experiment R3
	// compares against.
	BroadcastHandoff bool
	// HeartbeatTimeout is the wall-clock silence after which the coordinator
	// declares a worker dead (default 5s).
	HeartbeatTimeout time.Duration
	// Replicas is the number of standby copies of each camera's stream kept
	// on additional workers (0 = none). With replication, a worker crash
	// loses no history: the coordinator promotes a replica and its standby
	// copy becomes authoritative.
	Replicas int
	// RetryPolicy tunes the resilience layer every node wraps around its
	// transport for outbound calls: the per-attempt deadline that keeps one
	// hung peer from stalling heartbeats, rebalance pushes or query fan-out,
	// retry attempts, backoff shape, the per-peer circuit breaker and
	// slow-call logging (see cluster.Policy for fields and defaults).
	// Transport failures are retried with capped jittered backoff; remote
	// handler errors are never retried.
	RetryPolicy cluster.Policy
	// DisablePrune turns off summary-based scatter pruning and the two-phase
	// kNN, reverting every read to broadcast fan-out over the routed workers.
	// This is the baseline experiment R16 compares against and the reference
	// side of the pruned-vs-broadcast differential suite.
	DisablePrune bool
	// CoordinatorID names this coordinator within an HA group (default
	// "c0"). Failover elects the lowest ID among the most-caught-up
	// standbys, so IDs double as failover preference order.
	CoordinatorID wire.NodeID
	// CoordinatorPeers maps the other HA-group coordinators' IDs to their
	// serve addresses (this node excluded). Non-empty enables the
	// replicated control plane: the leader journals every control-plane
	// mutation and streams it to these peers with acknowledged
	// replication; empty (the default) runs the classic single
	// coordinator with zero HA overhead.
	CoordinatorPeers map[wire.NodeID]string
	// Standby starts this coordinator as a follower: it applies the
	// leader's journal, serves degraded local reads, and promotes itself
	// only after the leader's lease expires. Exactly one member of an HA
	// group should boot with Standby false.
	Standby bool
	// LeaseInterval is the leader lease lifetime (default 250ms). The
	// leader renews at a quarter of it; a standby that sees it lapse
	// polls peers and the deterministic winner takes over, so failover
	// completes within about two lease intervals.
	LeaseInterval time.Duration
	// Clock supplies every wall-clock read and sleep in the node (heartbeat
	// stamps, lease renewal, snapshot timestamps, retry backoff). Defaults to
	// clock.Wall; tests and seeded soaks inject clock.Fake to keep liveness
	// timing on the controlled schedule. Raw time.Now/time.Sleep in
	// internal/core and internal/cluster are rejected by the clockinject
	// static analyzer.
	Clock clock.Clock
}

func (o *Options) fill() {
	if o.AssocThreshold <= 0 || o.AssocThreshold >= 1 {
		o.AssocThreshold = 0.75
	}
	if o.LostAfter <= 0 {
		o.LostAfter = 3 * time.Second
	}
	if o.PrimeTTL <= 0 {
		o.PrimeTTL = 30 * time.Second
	}
	if o.CellSize <= 0 {
		o.CellSize = 50
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.CoordinatorID == "" {
		o.CoordinatorID = "c0"
	}
	if o.LeaseInterval <= 0 {
		o.LeaseInterval = 250 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clock.Wall
	}
}
