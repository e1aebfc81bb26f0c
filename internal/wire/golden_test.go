package wire

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stcam/internal/geo"
)

// The golden-frame suite freezes the v1 wire encoding: one committed frame
// per message kind under testdata/golden/, generated once from the original
// encoder. The tests assert the current encoder reproduces every committed
// frame byte for byte and the decoder accepts them, so a codec rewrite
// provably cannot break nodes speaking the old encoding mid-rolling-upgrade.
//
// Regenerate (only for a deliberate, versioned format change — never to make
// a red test green) with:
//
//	STCAM_UPDATE_GOLDEN=1 go test ./internal/wire -run TestGolden
//
// Fixtures must stay deterministic: maps may carry at most one entry (map
// iteration order is not fixed), times are pinned, and floats use explicit
// values (math.NaN() has a fixed bit pattern on every platform Go supports).

type goldenFixture struct {
	kind MsgKind
	msg  any
}

// goldenTime is the pinned timestamp base for every fixture.
var goldenTime = time.Unix(1700000000, 123456789).UTC()

// goldenFixtures returns one deterministic, field-rich payload per message
// kind. Every kind in kindNames must appear exactly once (enforced by
// TestGoldenCoversEveryKind).
func goldenFixtures() []goldenFixture {
	t0 := goldenTime
	rect := geo.Rect{Min: geo.Pt(-120.5, 35.25), Max: geo.Pt(-119.75, 36.5)}
	window := TimeWindow{From: t0, To: t0.Add(90 * time.Minute)}
	feature := []float32{0.125, -0.5, 0.75, float32(math.Inf(1))}
	records := []ResultRecord{
		{ObsID: 101, TargetID: 7, Camera: 3, Pos: geo.Pt(1.5, -2.25), Time: t0},
		{ObsID: 102, TargetID: 0, Camera: 4, Pos: geo.Pt(-0.125, 1e6), Time: time.Time{}},
	}
	cams := []CameraInfo{
		{ID: 1, Pos: geo.Pt(10, 20), Orient: 1.5, HalfFOV: 0.5, Range: 120},
		{ID: 2, Pos: geo.Pt(-30, 40.5), Orient: -2.25, HalfFOV: 0.75, Range: 80},
	}
	return []goldenFixture{
		{KindRegister, &Register{Node: "w1", Addr: "10.0.0.1:7000", Capacity: 4}},
		{KindRegisterAck, &RegisterAck{Accepted: true, Reason: "ok"}},
		{KindHeartbeat, &Heartbeat{
			Node: "w1", Seq: 42, Load: 12.5, Stored: 1000, Cameras: 8,
			Summary: &WorkerSummary{
				Epoch: 3, Records: 12, CellSize: 200,
				BucketFrom: t0, BucketWidth: time.Minute,
				Cells: []SummaryCell{
					{CX: -1, CY: 2, Count: 12, Bounds: rect, Buckets: []int64{3, 0, 9}},
					{CX: 5, CY: -7, Count: 1, Bounds: geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}},
				},
			},
		}},
		{KindHeartbeatAck, &HeartbeatAck{Epoch: 9}},
		{KindIngestBatch, &IngestBatch{
			Camera: 3, Source: "ingest-1", Seq: 77, FrameTime: t0,
			Observations: []Observation{
				{ObsID: 1, Camera: 3, Time: t0, Pos: geo.Pt(4.5, -1.25), Feature: feature, TrueID: 11},
				{ObsID: 2, Camera: 5, Time: t0.Add(time.Second), Pos: geo.Pt(0, 0), Feature: nil, TrueID: 0},
				{ObsID: 3, Camera: 3, Time: time.Time{}, Pos: geo.Pt(math.Inf(-1), math.NaN()), Feature: []float32{float32(math.NaN())}, TrueID: 2},
			},
		}},
		{KindIngestAck, &IngestAck{Accepted: 5, Rejected: 1, Replicated: 2, Replayed: true}},
		{KindRangeQuery, &RangeQuery{QueryID: 1001, Rect: rect, Window: window, Limit: 50}},
		{KindRangeResult, &RangeResult{QueryID: 1001, Records: records, Truncated: true, Asked: 8, Answered: 7}},
		{KindKNNQuery, &KNNQuery{QueryID: 1002, Center: geo.Pt(-120, 36), Window: window, K: 10, MaxDist2: 2500}},
		{KindKNNResult, &KNNResult{QueryID: 1002, Records: []KNNRecord{
			{ResultRecord: records[0], Dist2: 9.25},
			{ResultRecord: records[1], Dist2: math.Inf(1)},
		}, Asked: 4, Answered: 3}},
		{KindCountQuery, &CountQuery{QueryID: 1003, Rect: rect, Window: window}},
		{KindCountResult, &CountResult{QueryID: 1003, Count: 12345, Asked: 4, Answered: 4}},
		{KindTrajectoryQuery, &TrajectoryQuery{QueryID: 1004, TargetID: 7, Window: window}},
		{KindTrajectoryResult, &TrajectoryResult{QueryID: 1004, Records: records}},
		{KindInstallContinuous, &InstallContinuous{QueryID: 1005, Kind: ContinuousCount, Rect: rect, Threshold: 3}},
		{KindRemoveContinuous, &RemoveContinuous{QueryID: 1005}},
		{KindContinuousUpdate, &ContinuousUpdate{
			QueryID: 1005, Time: t0,
			Positive: records[:1], Negative: records[1:], Count: 6,
		}},
		{KindAssignCameras, &AssignCameras{Epoch: 4, Cameras: cams, Replicas: cams[:1]}},
		{KindAssignAck, &AssignAck{Epoch: 4, Accepted: 2}},
		{KindTrackStart, &TrackStart{TrackID: 501, Camera: 3, Feature: feature, Time: t0}},
		{KindTrackPrime, &TrackPrime{TrackID: 501, Cameras: []uint32{3, 5, 9}, Feature: feature, Expires: t0.Add(5 * time.Second)}},
		{KindTrackHandoff, &TrackHandoff{TrackID: 501, FromCamera: 3, ToCamera: 5, Feature: feature, Time: t0, Hops: 2}},
		{KindTrackUpdate, &TrackUpdate{TrackID: 501, Camera: 5, Pos: geo.Pt(7.5, 8.25), Time: t0, Lost: false}},
		{KindTrackStop, &TrackStop{TrackID: 501}},
		{KindStatsQuery, &StatsQuery{}},
		// Wire maps are encoded in iteration order, so fixture maps carry at
		// most one entry to keep the frame deterministic.
		{KindStatsResult, &StatsResult{
			Node:       "w1",
			Counters:   map[string]int64{"ingest.accepted": 99},
			Gauges:     map[string]int64{"store.records": 1000},
			Histograms: map[string]HistStats{"rpc.call.RangeQuery": {Count: 10, Sum: 1000, Min: 5, Max: 500, P50: 50, P95: 400, P99: 490}},
		}},
		{KindError, &Error{Code: CodeNotLeader, Message: "leader is c1 @ 10.0.0.9:7100"}},
		{KindHeatmapQuery, &HeatmapQuery{QueryID: 1006, Rect: rect, Window: window, CellSize: 50}},
		{KindHeatmapResult, &HeatmapResult{QueryID: 1006, CellSize: 50, Cells: []HeatCell{
			{CX: -2, CY: 3, Count: 17},
			{CX: 0, CY: 0, Count: 1},
		}}},
		{KindFilterQuery, &FilterQuery{QueryID: 1007, Rect: rect, Window: window, TargetID: 7, Cameras: []uint32{1, 2}, Limit: 25, ForcePlan: "spatial"}},
		{KindFilterResult, &FilterResult{QueryID: 1007, Records: records, Plan: "target", Truncated: false}},
		{KindClusterStatsQuery, &ClusterStatsQuery{}},
		{KindClusterStatsResult, &ClusterStatsResult{
			Epoch: 4, Role: "leader", Leader: "c1", LeaderAddr: "10.0.0.9:7100",
			Coordinator: StatsResult{Node: "c1", Counters: map[string]int64{"scatter.asked": 12}},
			Workers: []WorkerStatsEntry{
				{Node: "w1", Addr: "10.0.0.1:7000", Alive: true, Load: 12.5, Stored: 1000, Cameras: 8, Scraped: true,
					Stats: StatsResult{Node: "w1", Gauges: map[string]int64{"store.records": 1000}}},
				{Node: "w2", Addr: "10.0.0.2:7000", Alive: false},
			},
		}},
		{KindReplicate, &Replicate{
			Leader: "c1", LeaderAddr: "10.0.0.9:7100", Epoch: 4, Commit: 17, FromIndex: 16, SnapIndex: 0,
			Records: []ControlRecord{
				{Index: 16, Epoch: 4, Op: OpAssign, Assign: []AssignEntry{
					{Camera: 1, Node: "w1", Replicas: []NodeID{"w2"}},
					{Camera: 2, Node: "w2"},
				}},
				{Index: 17, Epoch: 4, Op: OpTrack, Track: TrackRecord{
					TrackID: 501, Owner: "w1", LastCamera: 3, Feature: feature, LastSeen: t0, Handoffs: 2,
				}},
				{Index: 18, Epoch: 4, Op: OpMember, Member: MemberRecord{Node: "w3", Addr: "10.0.0.3:7000", Capacity: 2}},
				{Index: 19, Epoch: 4, Op: OpCameras, Cameras: cams},
			},
		}},
		{KindReplicateAck, &ReplicateAck{Applied: 17, NeedFrom: 12}},
		{KindLeaderQuery, &LeaderQuery{}},
		{KindLeaderInfo, &LeaderInfo{Node: "c2", Addr: "10.0.0.10:7100", IsLeader: false, Leader: "c1", LeaderAddr: "10.0.0.9:7100", Epoch: 4, Applied: 17}},
		{KindSubscribe, &Subscribe{Kind: ContinuousRange, Rect: rect, Threshold: 2, Tenant: "acme"}},
		{KindSubscribeAck, &SubscribeAck{SubID: 9001, QueryID: 1005, Shared: 64}},
		{KindPollUpdates, &PollUpdates{SubID: 9001, Max: 128}},
		{KindPollResult, &PollResult{
			SubID: 9001,
			Updates: []ContinuousUpdate{
				{QueryID: 1005, Time: t0, Positive: records[:1], Count: 3},
				{QueryID: 1005, Time: t0.Add(time.Second), Negative: records[1:], Count: 2},
			},
			Dropped: 7, Evicted: true,
		}},
		{KindUnsubscribe, &Unsubscribe{SubID: 9001}},
		{KindUnsubscribeAck, &UnsubscribeAck{Remaining: 63}},
		{KindRangePart, &RangePart{QueryID: 1001, Records: blockOf(records...), Truncated: true}},
	}
}

// blockOf appends recs to a fresh RecordBlock, as a worker builds one.
func blockOf(recs ...ResultRecord) RecordBlock {
	var b RecordBlock
	for i := range recs {
		b.Append(&recs[i])
	}
	return b
}

func goldenPath(kind MsgKind) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%02d_%s.bin", int(kind), kind))
}

// TestGoldenCoversEveryKind: the fixture list and the protocol's kind table
// must agree exactly, so adding a message kind without freezing its encoding
// fails here.
func TestGoldenCoversEveryKind(t *testing.T) {
	seen := make(map[MsgKind]bool)
	for _, fx := range goldenFixtures() {
		if seen[fx.kind] {
			t.Errorf("duplicate golden fixture for %v", fx.kind)
		}
		seen[fx.kind] = true
		if fx.kind.String() == "Unknown" {
			t.Errorf("fixture kind %d not in kindNames", int(fx.kind))
		}
		if got := KindOf(fx.msg); got != fx.kind {
			t.Errorf("fixture for %v has payload of kind %v", fx.kind, got)
		}
	}
	for kind := range kindNames {
		if !seen[kind] {
			t.Errorf("no golden fixture for %v — every wire message kind needs a committed frame", kind)
		}
	}
}

// TestGoldenEncoderByteIdentical: the current encoder must reproduce every
// committed frame byte for byte. With STCAM_UPDATE_GOLDEN set the files are
// rewritten instead (a deliberate format change).
func TestGoldenEncoderByteIdentical(t *testing.T) {
	update := os.Getenv("STCAM_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range goldenFixtures() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, fx.kind, fx.msg); err != nil {
			t.Fatalf("encode %v: %v", fx.kind, err)
		}
		path := goldenPath(fx.kind)
		if update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden frame for %v (run with STCAM_UPDATE_GOLDEN=1 only for a deliberate format change): %v", fx.kind, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%v: encoder output differs from committed v1 frame\n got  %x\n want %x", fx.kind, buf.Bytes(), want)
		}
	}
}

// TestGoldenDecoderAccepts: every committed frame must decode, and the
// decoded value must re-encode to exactly the committed bytes (the decoder
// preserves float bit patterns, so byte equality is the correct oracle even
// for NaN-carrying fixtures).
func TestGoldenDecoderAccepts(t *testing.T) {
	if os.Getenv("STCAM_UPDATE_GOLDEN") != "" {
		t.Skip("updating golden frames")
	}
	for _, fx := range goldenFixtures() {
		frame, err := os.ReadFile(goldenPath(fx.kind))
		if err != nil {
			t.Fatalf("%v: %v", fx.kind, err)
		}
		env, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("decode committed %v frame: %v", fx.kind, err)
		}
		if env.Kind != fx.kind {
			t.Fatalf("committed %v frame decoded as kind %v", fx.kind, env.Kind)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, env.Kind, env.Payload); err != nil {
			t.Fatalf("re-encode decoded %v: %v", fx.kind, err)
		}
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Errorf("%v: decode→encode does not reproduce the committed frame\n got  %x\n want %x", fx.kind, buf.Bytes(), frame)
		}
	}
}
