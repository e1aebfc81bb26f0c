// Package wire defines the message vocabulary of the cluster protocol and the
// codec that moves it across connections. Every RPC in the framework — worker
// registration, observation ingest, query fan-out, continuous-query updates,
// tracking handoff — is one of the message types here, so the codec
// round-trip property in wire_test.go covers the entire protocol surface.
package wire

import (
	"time"

	"stcam/internal/geo"
)

// NodeID identifies a cluster node (worker or coordinator).
type NodeID string

// MsgKind enumerates the protocol messages. Kinds start at 1 so the zero
// value is detectably invalid.
type MsgKind int

// Message kinds.
const (
	KindRegister MsgKind = iota + 1
	KindRegisterAck
	KindHeartbeat
	KindHeartbeatAck
	KindIngestBatch
	KindIngestAck
	KindRangeQuery
	KindRangeResult
	KindKNNQuery
	KindKNNResult
	KindCountQuery
	KindCountResult
	KindTrajectoryQuery
	KindTrajectoryResult
	KindInstallContinuous
	KindRemoveContinuous
	KindContinuousUpdate
	KindAssignCameras
	KindAssignAck
	KindTrackStart
	KindTrackPrime
	KindTrackHandoff
	KindTrackUpdate
	KindTrackStop
	KindStatsQuery
	KindStatsResult
	KindError
	KindHeatmapQuery
	KindHeatmapResult
	KindFilterQuery
	KindFilterResult
	KindClusterStatsQuery
	KindClusterStatsResult
	KindReplicate
	KindReplicateAck
	KindLeaderQuery
	KindLeaderInfo
	KindSubscribe
	KindSubscribeAck
	KindPollUpdates
	KindPollResult
	KindUnsubscribe
	KindUnsubscribeAck
	KindRangePart
)

var kindNames = map[MsgKind]string{
	KindRegister:           "Register",
	KindRegisterAck:        "RegisterAck",
	KindHeartbeat:          "Heartbeat",
	KindHeartbeatAck:       "HeartbeatAck",
	KindIngestBatch:        "IngestBatch",
	KindIngestAck:          "IngestAck",
	KindRangeQuery:         "RangeQuery",
	KindRangeResult:        "RangeResult",
	KindKNNQuery:           "KNNQuery",
	KindKNNResult:          "KNNResult",
	KindCountQuery:         "CountQuery",
	KindCountResult:        "CountResult",
	KindTrajectoryQuery:    "TrajectoryQuery",
	KindTrajectoryResult:   "TrajectoryResult",
	KindInstallContinuous:  "InstallContinuous",
	KindRemoveContinuous:   "RemoveContinuous",
	KindContinuousUpdate:   "ContinuousUpdate",
	KindAssignCameras:      "AssignCameras",
	KindAssignAck:          "AssignAck",
	KindTrackStart:         "TrackStart",
	KindTrackPrime:         "TrackPrime",
	KindTrackHandoff:       "TrackHandoff",
	KindTrackUpdate:        "TrackUpdate",
	KindTrackStop:          "TrackStop",
	KindStatsQuery:         "StatsQuery",
	KindStatsResult:        "StatsResult",
	KindError:              "Error",
	KindHeatmapQuery:       "HeatmapQuery",
	KindHeatmapResult:      "HeatmapResult",
	KindFilterQuery:        "FilterQuery",
	KindFilterResult:       "FilterResult",
	KindClusterStatsQuery:  "ClusterStatsQuery",
	KindClusterStatsResult: "ClusterStatsResult",
	KindReplicate:          "Replicate",
	KindReplicateAck:       "ReplicateAck",
	KindLeaderQuery:        "LeaderQuery",
	KindLeaderInfo:         "LeaderInfo",
	KindSubscribe:          "Subscribe",
	KindSubscribeAck:       "SubscribeAck",
	KindPollUpdates:        "PollUpdates",
	KindPollResult:         "PollResult",
	KindUnsubscribe:        "Unsubscribe",
	KindUnsubscribeAck:     "UnsubscribeAck",
	KindRangePart:          "RangePart",
}

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Unknown"
}

// Observation is the wire form of a detection event.
type Observation struct {
	ObsID   uint64
	Camera  uint32
	Time    time.Time
	Pos     geo.Point
	Feature []float32
	TrueID  uint64 // evaluation plumbing; zero in production traffic
}

// Register announces a worker to the coordinator.
type Register struct {
	Node     NodeID
	Addr     string
	Capacity int // relative capacity weight (1 = baseline)
}

// RegisterAck confirms registration.
type RegisterAck struct {
	Accepted bool
	Reason   string
}

// Heartbeat is the liveness and load report workers send periodically.
// Summary, when present, piggybacks the worker's spatial sketch so the
// coordinator can rank and prune query fan-out without extra RPCs.
type Heartbeat struct {
	Node    NodeID
	Seq     uint64
	Load    float64 // recent observations/second
	Stored  int     // records currently indexed
	Cameras int     // cameras currently owned
	Summary *WorkerSummary
}

// WorkerSummary is a compact sketch of the data one worker has indexed:
// per coarse spatial cell, a record count, the bounding rect of the store
// cells feeding it, and a coarse time histogram. The coordinator uses it to
// skip workers that provably hold no matching records (count/emptiness,
// rect intersection, time-bucket overlap) and to lower-bound each worker's
// nearest possible record for two-phase kNN. Bounds are conservative: they
// always contain every summarized record, so a summary can only cause
// over-querying, never a wrong prune — as long as it is current. Freshness
// is heartbeat-bounded; Epoch ties a summary to the camera-assignment epoch
// it was built under so reassignments invalidate it wholesale.
type WorkerSummary struct {
	Epoch       uint64        // assignment epoch the summary was built under
	Records     int           // total records summarized
	CellSize    float64       // coarse cell size (world units)
	BucketFrom  time.Time     // start of time bucket 0 (zero when empty)
	BucketWidth time.Duration // coarse time bucket width (0 when empty)
	Cells       []SummaryCell
}

// SummaryCell is one non-empty coarse cell of a WorkerSummary, keyed by
// integer cell coordinates (world position = cell index × cell size).
// Buckets counts records per coarse time bucket starting at the summary's
// BucketFrom; every summarized record in this cell is counted in exactly
// one bucket, so all-zero overlap with a query window proves emptiness.
type SummaryCell struct {
	CX, CY  int32
	Count   int64
	Bounds  geo.Rect // contains every record in the cell
	Buckets []int64
}

// HeartbeatAck carries the coordinator's view back (e.g. epoch changes).
type HeartbeatAck struct {
	Epoch uint64
}

// IngestBatch delivers observations to a worker. Observations may span
// multiple cameras (each Observation carries its own Camera), so an ingest
// pipeline coalesces everything a worker owns in one frame into a single
// RPC. FrameTime is the camera clock at frame capture: it advances the
// worker's observation time even when the frame contained no detections
// (Camera 0 with an empty observation list is a pure clock tick addressed to
// the worker rather than a single camera).
//
// Source and Seq make delivery idempotent: a sender that retries (the
// resilience layer is at-least-once) stamps each batch with its identity and
// a per-worker monotonically increasing sequence number. A worker applies a
// sequenced batch at most once; re-deliveries are acknowledged from the
// original outcome without touching the index. Unsequenced batches
// (Source == "" or Seq == 0) keep the plain at-least-once semantics.
type IngestBatch struct {
	Camera       uint32 // single-camera routing hint (coordinator ingest proxy); 0 for multi-camera or clock-only batches
	Source       string // sender identity scoping Seq; "" = unsequenced
	Seq          uint64 // per-(Source → worker) delivery sequence; 0 = unsequenced
	FrameTime    time.Time
	Observations []Observation
}

// IngestAck acknowledges a batch. Accepted counts observations indexed as
// the primary owner; Replicated counts standby copies; Rejected counts
// observations for cameras the worker does not hold at all. Replayed marks
// the ack of a duplicate sequenced delivery — the counts are those of the
// original application, so retried senders never double-count.
type IngestAck struct {
	Accepted   int
	Rejected   int
	Replicated int
	Replayed   bool
}

// TimeWindow is a closed time interval used by all queries.
type TimeWindow struct {
	From, To time.Time
}

// Contains reports whether t falls inside the window.
func (w TimeWindow) Contains(t time.Time) bool {
	return !t.Before(w.From) && !t.After(w.To)
}

// RangeQuery asks for observations in a rectangle and time window.
type RangeQuery struct {
	QueryID uint64
	Rect    geo.Rect
	Window  TimeWindow
	Limit   int // 0 = unlimited
}

// ResultRecord is the wire form of an indexed observation in results.
type ResultRecord struct {
	ObsID    uint64
	TargetID uint64
	Camera   uint32
	Pos      geo.Point
	Time     time.Time
}

// RangeResult is the coordinator's merged answer to a RangeQuery: the
// matching records ordered by (Time, ObsID). Truncated reports that the
// answer was cut at the query's Limit with matching records left over.
// Asked/Answered report scatter completeness: how many workers the query
// fanned out to and how many answered before their deadline, so remote
// clients can tell a complete answer from one degraded by a partition.
//
// On the send side the records may instead travel as Encoded, the merged
// answer's bytes, which the encoder copies; the frame is the same either way.
// Decoding always fills Records and leaves Encoded empty.
type RangeResult struct {
	QueryID   uint64
	Records   []ResultRecord
	Encoded   EncodedRecords
	Truncated bool
	Asked     int
	Answered  int
}

// RangePart is one worker's answer to a RangeQuery: its matching records,
// ordered by (Time, ObsID) and already encoded, which the coordinator merges
// into the client's RangeResult without decoding them. Truncated reports that
// the worker cut its answer at the query's Limit. The frame lays out like a
// RangeResult without Asked/Answered.
type RangePart struct {
	QueryID   uint64
	Records   RecordBlock
	Truncated bool
}

// KNNQuery asks for the k observations nearest to a point within a window.
// MaxDist2 > 0 is a pushed-down radius bound: the server may discard any
// candidate with squared distance strictly greater than MaxDist2 (the bound
// itself is inclusive, preserving ties at exactly MaxDist2).
type KNNQuery struct {
	QueryID  uint64
	Center   geo.Point
	Window   TimeWindow
	K        int
	MaxDist2 float64 // 0 = unbounded
}

// KNNRecord is a kNN result with its distance.
type KNNRecord struct {
	ResultRecord
	Dist2 float64
}

// KNNResult returns one worker's candidates — or, on the coordinator's
// client-facing path, the merged answer, where Asked/Answered report scatter
// completeness exactly as in RangeResult (workers pruned by summaries are
// not counted in Asked: they were proven empty, not skipped). Worker→
// coordinator results leave both zero.
type KNNResult struct {
	QueryID  uint64
	Records  []KNNRecord
	Asked    int
	Answered int
}

// CountQuery asks for a count of observations in a region and window.
type CountQuery struct {
	QueryID uint64
	Rect    geo.Rect
	Window  TimeWindow
}

// CountResult returns one worker's count — or, on the coordinator's
// client-facing path, the merged total with scatter completeness meta
// (see RangeResult). Worker→coordinator results leave Asked/Answered zero.
type CountResult struct {
	QueryID  uint64
	Count    int
	Asked    int
	Answered int
}

// TrajectoryQuery asks for a target's observation history.
type TrajectoryQuery struct {
	QueryID  uint64
	TargetID uint64
	Window   TimeWindow
}

// TrajectoryResult returns the target's records from one worker.
type TrajectoryResult struct {
	QueryID uint64
	Records []ResultRecord
}

// ContinuousKind distinguishes the continuous-query types.
type ContinuousKind int

// Continuous query kinds.
const (
	ContinuousRange ContinuousKind = iota + 1
	ContinuousCount
)

// InstallContinuous registers a standing query on a worker. Updates flow back
// asynchronously as ContinuousUpdate messages.
type InstallContinuous struct {
	QueryID   uint64
	Kind      ContinuousKind
	Rect      geo.Rect
	Threshold int // ContinuousCount: fire when count in Rect crosses this
}

// RemoveContinuous uninstalls a standing query.
type RemoveContinuous struct {
	QueryID uint64
}

// ContinuousUpdate is an incremental (+/-) answer delta: Positive lists
// targets entering the query answer, Negative lists targets leaving it.
type ContinuousUpdate struct {
	QueryID  uint64
	Time     time.Time
	Positive []ResultRecord
	Negative []ResultRecord
	Count    int // ContinuousCount queries: current count
}

// AssignCameras tells a worker the set of cameras it owns (full replacement).
// Cameras lists the worker's primary cameras; Replicas lists cameras whose
// streams the worker additionally ingests as a standby copy. Queries answer
// from primary data only, so replicas cost storage but never duplicate
// results; on primary failure the coordinator promotes a replica by moving
// the camera into its Cameras set, making the standby history authoritative.
type AssignCameras struct {
	Epoch    uint64
	Cameras  []CameraInfo
	Replicas []CameraInfo
}

// CameraInfo is the wire form of a camera registration.
type CameraInfo struct {
	ID      uint32
	Pos     geo.Point
	Orient  float64
	HalfFOV float64
	Range   float64
}

// AssignAck confirms a (re)assignment.
type AssignAck struct {
	Epoch    uint64
	Accepted int
}

// TrackStart asks a worker to begin tracking a target seen in one of its
// cameras, seeded with an appearance feature.
type TrackStart struct {
	TrackID uint64
	Camera  uint32
	Feature []float32
	Time    time.Time
}

// TrackPrime warns a worker that a tracked target may appear on one of its
// cameras soon (vision-graph handoff priming).
type TrackPrime struct {
	TrackID uint64
	Cameras []uint32
	Feature []float32
	Expires time.Time
}

// TrackHandoff transfers ownership of a track to the worker that now sees it.
type TrackHandoff struct {
	TrackID    uint64
	FromCamera uint32
	ToCamera   uint32
	Feature    []float32
	Time       time.Time
	Hops       int
}

// TrackUpdate streams a tracked target's position to the subscriber.
type TrackUpdate struct {
	TrackID uint64
	Camera  uint32
	Pos     geo.Point
	Time    time.Time
	Lost    bool // true when the track could not be re-acquired anywhere
}

// TrackStop cancels a track.
type TrackStop struct {
	TrackID uint64
}

// HeatmapQuery asks for an observation-density map: counts per square cell of
// the given size, over a region and time window. The aggregation runs on the
// workers; only the non-empty cells travel.
type HeatmapQuery struct {
	QueryID  uint64
	Rect     geo.Rect
	Window   TimeWindow
	CellSize float64
}

// HeatCell is one non-empty heatmap cell, keyed by integer cell coordinates
// (world position = cell index × cell size).
type HeatCell struct {
	CX, CY int32
	Count  int64
}

// HeatmapResult returns one worker's partial density map.
type HeatmapResult struct {
	QueryID  uint64
	CellSize float64
	Cells    []HeatCell
}

// FilterQuery is a multi-predicate query: a spatial range plus optional
// camera-set and target predicates. Each worker picks the evaluation order —
// spatial-index-first or target-history-first — by comparing the store's
// exact record count in the range and window with the target's history
// length.
type FilterQuery struct {
	QueryID   uint64
	Rect      geo.Rect
	Window    TimeWindow
	TargetID  uint64   // 0 = any target
	Cameras   []uint32 // empty = any camera
	Limit     int
	ForcePlan string // "" = adaptive; "spatial"/"target" force a plan (ablation)
}

// FilterResult returns the matching records plus the plan each worker chose
// ("spatial" or "target"; "merged" in the coordinator's answer), for
// observability and the planner ablation. Truncated reports that Limit cut
// the answer with matches left over.
type FilterResult struct {
	QueryID   uint64
	Records   []ResultRecord
	Plan      string
	Truncated bool
}

// StatsQuery asks a worker for its metrics snapshot.
type StatsQuery struct{}

// StatsResult returns a worker's metric values by name.
type StatsResult struct {
	Node       NodeID
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistStats
}

// HistStats is the wire summary of one latency histogram. All duration
// fields are nanoseconds.
type HistStats struct {
	Count         int64
	Sum, Min, Max int64
	P50, P95, P99 int64
}

// ClusterStatsQuery asks the coordinator for a cluster-wide scrape: its own
// registry plus a StatsQuery fan-out to every live worker, merged with the
// membership table. stcamctl stats/top ride this.
type ClusterStatsQuery struct{}

// WorkerStatsEntry pairs one worker's membership row with its scraped
// metrics. Entries for dead or unreachable workers carry membership data
// only (Scraped=false, zero Stats), so the table still shows them.
type WorkerStatsEntry struct {
	Node    NodeID
	Addr    string
	Alive   bool
	Load    float64 // recent observations/second, from the last heartbeat
	Stored  int     // records indexed, from the last heartbeat
	Cameras int     // cameras owned, from the last heartbeat
	Scraped bool    // true when the StatsQuery RPC to this worker succeeded
	Stats   StatsResult
}

// ClusterStatsResult is the coordinator's merged cluster scrape. Role,
// Leader, and LeaderAddr describe the answering coordinator's control-plane
// position ("leader" or "standby", and the leader it follows), so stcamctl
// top shows where the control plane is even when asked via a standby.
type ClusterStatsResult struct {
	Epoch       uint64
	Role        string
	Leader      NodeID
	LeaderAddr  string
	Coordinator StatsResult
	Workers     []WorkerStatsEntry
}

// ControlOp enumerates the journaled control-plane mutations. Each journal
// record carries exactly one op; the union fields of ControlRecord that the
// op does not use stay zero on the wire.
type ControlOp uint8

// Control-plane journal operations.
const (
	// OpCameras upserts camera registrations into the replicated registry.
	OpCameras ControlOp = iota + 1
	// OpAssign replaces the full camera→worker assignment (plus replica
	// placement) as of the record's epoch.
	OpAssign
	// OpTrack upserts one track-registry entry (start, ownership change,
	// recovery).
	OpTrack
	// OpTrackRemove deletes one track-registry entry (stop).
	OpTrackRemove
	// OpMember upserts one worker-membership entry, so a promoted standby
	// knows every worker's address without waiting for re-registration.
	OpMember
)

// AssignEntry is one camera's placement in an OpAssign record.
type AssignEntry struct {
	Camera   uint32
	Node     NodeID
	Replicas []NodeID
}

// TrackRecord is the replicated form of one coordinator track-registry
// entry: enough to keep the track alive across a leader failover. Position
// history (the stitched path) is deliberately not replicated — it is
// re-derivable from worker stores — so the journal stays small.
type TrackRecord struct {
	TrackID    uint64
	Owner      NodeID
	LastCamera uint32
	Feature    []float32
	LastSeen   time.Time
	Handoffs   int
}

// MemberRecord is the replicated form of one worker-membership entry.
type MemberRecord struct {
	Node     NodeID
	Addr     string
	Capacity int
}

// ControlRecord is one journaled, versioned control-plane mutation. Index is
// the journal position (contiguous from 1); Epoch is the assignment epoch in
// force after applying the record. A standby that has applied index N holds
// exactly the control state the leader had at N.
type ControlRecord struct {
	Index   uint64
	Epoch   uint64
	Op      ControlOp
	Cameras []CameraInfo  // OpCameras
	Assign  []AssignEntry // OpAssign
	Track   TrackRecord   // OpTrack / OpTrackRemove (TrackID only)
	Member  MemberRecord  // OpMember
}

// Replicate streams journal records from the leader coordinator to one
// standby. It doubles as the leader lease: the leader sends one (possibly
// empty) Replicate per lease interval, and a standby that misses leases past
// the timeout starts an election. FromIndex is the journal index of
// Records[0]; an empty Records slice is a pure lease renewal.
//
// When SnapIndex is non-zero the frame carries a full control-state snapshot
// instead of a journal tail: Records flattens the leader's entire live state
// (cameras, membership, assignment, tracks) as of journal index SnapIndex,
// and the receiver replaces its journal bookkeeping with that index. The
// leader sends a snapshot when the peer needs records it has compacted away.
type Replicate struct {
	Leader     NodeID
	LeaderAddr string
	Epoch      uint64
	Commit     uint64 // highest index durable on a majority of the group
	FromIndex  uint64
	SnapIndex  uint64 // non-zero: Records is a full-state snapshot at this index
	Records    []ControlRecord
}

// ReplicateAck reports how far a standby has applied. NeedFrom, when
// non-zero, asks the leader to resend from that index (gap detected —
// typically a standby that restarted or missed a stream segment).
type ReplicateAck struct {
	Applied  uint64
	NeedFrom uint64
}

// LeaderQuery asks any coordinator who it believes the leader is, plus its
// own replication progress. Standbys use it to rank each other during an
// election; workers and clients use it for discovery.
type LeaderQuery struct{}

// LeaderInfo is a coordinator's self-description: its identity and role,
// the leader it follows (itself when leading), and its journal progress.
type LeaderInfo struct {
	Node       NodeID
	Addr       string
	IsLeader   bool
	Leader     NodeID
	LeaderAddr string
	Epoch      uint64
	Applied    uint64
}

// Subscribe asks the serving plane for a standing continuous-query
// subscription. Subscriptions with identical (Kind, Rect, Threshold) shapes
// share one worker-side install — N subscribers to the same geofence cost one
// evaluation per observation. Tenant names the quota bucket the subscription
// is charged to ("" = the anonymous pool).
type Subscribe struct {
	Kind      ContinuousKind
	Rect      geo.Rect
	Threshold int
	Tenant    string
}

// SubscribeAck confirms a subscription: SubID is the subscriber's private
// handle for PollUpdates/Unsubscribe; QueryID identifies the shared install
// backing it; Shared counts the subscribers multiplexed onto that install,
// this one included.
type SubscribeAck struct {
	SubID   uint64
	QueryID uint64
	Shared  int
}

// PollUpdates drains a subscriber's buffered continuous-query deltas (the
// transport is request/response, so delivery is poll-based). Max bounds the
// updates returned per poll (0 = all buffered).
type PollUpdates struct {
	SubID uint64
	Max   int
}

// PollResult carries the drained deltas. Dropped is the lifetime count of
// updates lost to this subscriber's buffer overflowing; Evicted means the
// serving plane gave up on this slow consumer — the SubID is dead and the
// client must re-subscribe.
type PollResult struct {
	SubID   uint64
	Updates []ContinuousUpdate
	Dropped int64
	Evicted bool
}

// Unsubscribe ends a subscription, releasing its share of the backing
// install (the install itself is uninstalled when the last subscriber
// leaves).
type Unsubscribe struct {
	SubID uint64
}

// UnsubscribeAck reports how many subscribers still share the install.
type UnsubscribeAck struct {
	Remaining int
}

// Error is the wire form of a failed request.
type Error struct {
	Code    int
	Message string
}

// Error codes.
const (
	CodeUnknown     = 1
	CodeBadRequest  = 2
	CodeNotFound    = 3
	CodeUnavailable = 4
	CodeWrongEpoch  = 5
	// CodeMustRegister is the coordinator's answer to a heartbeat from a
	// node it does not know (typically after a coordinator restart wiped
	// membership): the worker must re-send Register before its heartbeats
	// count again.
	CodeMustRegister = 7
	// CodeNotLeader is a standby coordinator's answer to control traffic
	// only the leader may handle (registration, heartbeats, tracking pushes,
	// camera registration). The error message carries the current leader's
	// address when the standby knows one, so the caller can redirect.
	CodeNotLeader = 8
	// CodeOverQuota is the serving plane's answer to a query or subscription
	// whose tenant's token bucket is empty. The request was well-formed; the
	// caller should back off and retry after its quota refills.
	CodeOverQuota = 9
	// CodeShed is the serving plane's admission-control answer under
	// overload: query traffic of the caller's priority class is being
	// dropped to protect ingest and tracking, which are never shed.
	CodeShed = 10
)
