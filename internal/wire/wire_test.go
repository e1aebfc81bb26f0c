package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"stcam/internal/geo"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 123456789, time.UTC)

// allMessages returns one populated instance of every protocol message. Codec
// coverage lives or dies by this list staying exhaustive, which
// TestEveryKindCovered enforces.
func allMessages() []any {
	return []any{
		&Register{Node: "w1", Addr: "127.0.0.1:7001", Capacity: 2},
		&RegisterAck{Accepted: true, Reason: "ok"},
		&Heartbeat{Node: "w1", Seq: 42, Load: 123.5, Stored: 10000, Cameras: 16,
			Summary: &WorkerSummary{
				Epoch: 7, Records: 10000, CellSize: 200,
				BucketFrom: t0, BucketWidth: time.Minute,
				Cells: []SummaryCell{
					{CX: 0, CY: 1, Count: 9000, Bounds: geo.RectOf(0, 200, 180, 390), Buckets: []int64{100, 0, 8900}},
					{CX: -2, CY: 3, Count: 1000, Bounds: geo.RectOf(-400, 600, -250, 780), Buckets: []int64{0, 1000}},
				}}},
		&Heartbeat{Node: "w2", Seq: 1, Load: 0, Stored: 0, Cameras: 0},
		&HeartbeatAck{Epoch: 7},
		&IngestBatch{Camera: 3, FrameTime: t0.Add(2 * time.Second), Observations: []Observation{
			{ObsID: 1, Camera: 3, Time: t0, Pos: geo.Pt(1.5, -2.5), Feature: []float32{0.1, -0.2, 0.3}, TrueID: 9},
			{ObsID: 2, Camera: 3, Time: t0.Add(time.Second), Pos: geo.Pt(0, 0)},
		}},
		&IngestAck{Accepted: 2, Rejected: 1},
		&RangeQuery{QueryID: 11, Rect: geo.RectOf(0, 0, 100, 50), Window: TimeWindow{From: t0, To: t0.Add(time.Minute)}, Limit: 500},
		&RangeResult{QueryID: 11, Records: []ResultRecord{
			{ObsID: 5, TargetID: 2, Camera: 1, Pos: geo.Pt(3, 4), Time: t0},
		}, Truncated: true, Asked: 8, Answered: 7},
		&KNNQuery{QueryID: 12, Center: geo.Pt(10, 20), Window: TimeWindow{From: t0, To: t0.Add(time.Hour)}, K: 5, MaxDist2: 156.25},
		&KNNResult{QueryID: 12, Records: []KNNRecord{
			{ResultRecord: ResultRecord{ObsID: 7, Camera: 2, Pos: geo.Pt(1, 1), Time: t0}, Dist2: 2.25},
		}, Asked: 3, Answered: 3},
		&CountQuery{QueryID: 13, Rect: geo.RectOf(-5, -5, 5, 5), Window: TimeWindow{From: t0, To: t0}},
		&CountResult{QueryID: 13, Count: 77, Asked: 4, Answered: 3},
		&TrajectoryQuery{QueryID: 14, TargetID: 99, Window: TimeWindow{From: t0, To: t0.Add(time.Hour)}},
		&TrajectoryResult{QueryID: 14, Records: []ResultRecord{
			{ObsID: 1, TargetID: 99, Camera: 4, Pos: geo.Pt(0, 1), Time: t0},
			{ObsID: 2, TargetID: 99, Camera: 5, Pos: geo.Pt(1, 2), Time: t0.Add(time.Second)},
		}},
		&InstallContinuous{QueryID: 15, Kind: ContinuousRange, Rect: geo.RectOf(0, 0, 10, 10), Threshold: 3},
		&RemoveContinuous{QueryID: 15},
		&ContinuousUpdate{QueryID: 15, Time: t0,
			Positive: []ResultRecord{{ObsID: 1, TargetID: 5, Camera: 1, Pos: geo.Pt(2, 2), Time: t0}},
			Negative: []ResultRecord{{ObsID: 2, TargetID: 6, Camera: 1, Pos: geo.Pt(50, 2), Time: t0}},
			Count:    4},
		&AssignCameras{Epoch: 3, Cameras: []CameraInfo{
			{ID: 1, Pos: geo.Pt(0, 0), Orient: 0.5, HalfFOV: 0.6, Range: 80},
			{ID: 2, Pos: geo.Pt(100, 0), Orient: -0.5, HalfFOV: 0.7, Range: 90},
		}, Replicas: []CameraInfo{
			{ID: 3, Pos: geo.Pt(200, 0), Orient: 0.1, HalfFOV: 0.6, Range: 80},
		}},
		&AssignAck{Epoch: 3, Accepted: 2},
		&TrackStart{TrackID: 21, Camera: 6, Feature: []float32{1, 0, 0}, Time: t0},
		&TrackPrime{TrackID: 21, Cameras: []uint32{7, 8}, Feature: []float32{1, 0, 0}, Expires: t0.Add(30 * time.Second)},
		&TrackHandoff{TrackID: 21, FromCamera: 6, ToCamera: 7, Feature: []float32{0, 1, 0}, Time: t0, Hops: 2},
		&TrackUpdate{TrackID: 21, Camera: 7, Pos: geo.Pt(9, 9), Time: t0, Lost: false},
		&TrackStop{TrackID: 21},
		&StatsQuery{},
		&StatsResult{Node: "w2", Counters: map[string]int64{"ingest": 100, "queries": 5}, Gauges: map[string]int64{"stored": 42},
			Histograms: map[string]HistStats{"rpc.call.Heartbeat": {Count: 9, Sum: 9_000_000, Min: 500_000, Max: 2_000_000, P50: 900_000, P95: 1_900_000, P99: 2_000_000}}},
		&ClusterStatsQuery{},
		&ClusterStatsResult{Epoch: 4, Role: "leader", Leader: "c1", LeaderAddr: "coord-1",
			Coordinator: StatsResult{Node: "coordinator", Counters: map[string]int64{"queries.range": 12}},
			Workers: []WorkerStatsEntry{
				{Node: "w1", Addr: "127.0.0.1:7001", Alive: true, Load: 120.5, Stored: 9000, Cameras: 8, Scraped: true,
					Stats: StatsResult{Node: "w1", Counters: map[string]int64{"ingest.accepted": 9000}, Gauges: map[string]int64{"tracks.resident": 2},
						Histograms: map[string]HistStats{"ingest.latency": {Count: 3, Sum: 300, Min: 50, Max: 200, P50: 50, P95: 200, P99: 200}}}},
				{Node: "w2", Addr: "127.0.0.1:7002", Alive: false, Load: 0, Stored: 400, Cameras: 0, Scraped: false},
			}},
		&Replicate{Leader: "c1", LeaderAddr: "coord-1", Epoch: 9, Commit: 41, FromIndex: 40, Records: []ControlRecord{
			{Index: 40, Epoch: 8, Op: OpCameras, Cameras: []CameraInfo{{ID: 4, Pos: geo.Pt(10, 20), Orient: 0.25, HalfFOV: 0.5, Range: 60}}},
			{Index: 41, Epoch: 9, Op: OpAssign, Assign: []AssignEntry{
				{Camera: 4, Node: "w1", Replicas: []NodeID{"w2", "w3"}},
				{Camera: 5, Node: "w2"},
			}},
			{Index: 42, Epoch: 9, Op: OpTrack, Track: TrackRecord{TrackID: 21, Owner: "w1", LastCamera: 4, Feature: []float32{1, 0}, LastSeen: t0, Handoffs: 3}},
			{Index: 43, Epoch: 9, Op: OpTrackRemove, Track: TrackRecord{TrackID: 21}},
			{Index: 44, Epoch: 9, Op: OpMember, Member: MemberRecord{Node: "w4", Addr: "127.0.0.1:7004", Capacity: 2}},
		}},
		&Replicate{Leader: "c2", LeaderAddr: "coord-2", Epoch: 10, Commit: 44}, // pure lease renewal
		&Replicate{Leader: "c2", LeaderAddr: "coord-2", Epoch: 10, Commit: 50, SnapIndex: 50, Records: []ControlRecord{
			{Epoch: 10, Op: OpMember, Member: MemberRecord{Node: "w1", Addr: "127.0.0.1:7001", Capacity: 1}},
		}}, // full-state snapshot after journal compaction
		&ReplicateAck{Applied: 44, NeedFrom: 0},
		&ReplicateAck{Applied: 12, NeedFrom: 13},
		&LeaderQuery{},
		&LeaderInfo{Node: "c2", Addr: "coord-2", IsLeader: false, Leader: "c1", LeaderAddr: "coord-1", Epoch: 9, Applied: 44},
		&Error{Code: CodeNotFound, Message: "no such track"},
		&HeatmapQuery{QueryID: 30, Rect: geo.RectOf(0, 0, 500, 500), Window: TimeWindow{From: t0, To: t0.Add(time.Minute)}, CellSize: 50},
		&HeatmapResult{QueryID: 30, CellSize: 50, Cells: []HeatCell{{CX: 1, CY: -2, Count: 17}, {CX: 0, CY: 0, Count: 3}}},
		&FilterQuery{QueryID: 31, Rect: geo.RectOf(0, 0, 100, 100), Window: TimeWindow{From: t0, To: t0.Add(time.Minute)}, TargetID: 5, Cameras: []uint32{1, 3}, Limit: 10},
		&FilterResult{QueryID: 31, Records: []ResultRecord{{ObsID: 4, TargetID: 5, Camera: 3, Pos: geo.Pt(1, 2), Time: t0}}, Plan: "target", Truncated: true},
		&RangePart{QueryID: 32, Records: blockOf(
			ResultRecord{ObsID: 5, TargetID: 2, Camera: 1, Pos: geo.Pt(3, 4), Time: t0},
			ResultRecord{ObsID: 6, Camera: 2, Pos: geo.Pt(-3, 4)},
		), Truncated: true},
		&RangePart{QueryID: 33},
		&Subscribe{Kind: ContinuousCount, Rect: geo.RectOf(0, 0, 10, 10), Threshold: 2, Tenant: "acme"},
		&SubscribeAck{SubID: 40, QueryID: 15, Shared: 3},
		&PollUpdates{SubID: 40, Max: 16},
		&PollResult{SubID: 40, Updates: []ContinuousUpdate{{QueryID: 15, Time: t0, Count: 2}}, Dropped: 1, Evicted: true},
		&Unsubscribe{SubID: 40},
		&UnsubscribeAck{Remaining: 2},
	}
}

// TestEveryKindCovered ensures allMessages covers every declared kind, so the
// round-trip test below really exercises the whole protocol.
func TestEveryKindCovered(t *testing.T) {
	covered := map[MsgKind]bool{}
	for _, m := range allMessages() {
		k := KindOf(m)
		if k == 0 {
			t.Fatalf("KindOf(%T) = 0", m)
		}
		covered[k] = true
	}
	for k := KindRegister; k <= KindRangePart; k++ {
		if !covered[k] {
			t.Errorf("message kind %v (%d) has no round-trip coverage", k, int(k))
		}
	}
}

// TestRoundTripAll is the codec invariant from DESIGN.md: Decode(Encode(m))
// equals m for every protocol message.
func TestRoundTripAll(t *testing.T) {
	for _, msg := range allMessages() {
		kind := KindOf(msg)
		t.Run(kind.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, kind, msg); err != nil {
				t.Fatalf("write: %v", err)
			}
			env, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if env.Kind != kind {
				t.Fatalf("kind = %v, want %v", env.Kind, kind)
			}
			if !reflect.DeepEqual(env.Payload, msg) {
				t.Errorf("round trip mismatch:\n got  %#v\n want %#v", env.Payload, msg)
			}
		})
	}
}

func TestRoundTripStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := allMessages()
	for _, m := range msgs {
		if err := WriteMessage(&buf, KindOf(m), m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		env, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(env.Payload, want) {
			t.Fatalf("message %d mismatch: %#v", i, env.Payload)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("trailing read = %v, want io.EOF", err)
	}
}

func TestZeroTimes(t *testing.T) {
	msg := &TrackStart{TrackID: 1, Camera: 2}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, KindTrackStart, msg); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := env.Payload.(*TrackStart)
	if !got.Time.IsZero() {
		t.Errorf("zero time decoded as %v", got.Time)
	}
}

func TestCorruptFrames(t *testing.T) {
	// Truncated header.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header accepted")
	}
	// Oversized length.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(KindHeartbeat)}
	if _, err := ReadMessage(bytes.NewReader(big)); err != ErrFrameTooLarge {
		t.Errorf("oversized frame error = %v", err)
	}
	// Zero-size frame.
	zero := []byte{0, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(zero)); err == nil {
		t.Error("zero-size frame accepted")
	}
	// Unknown kind.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 200})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated body: valid header, missing payload bytes.
	var good bytes.Buffer
	if err := WriteMessage(&good, KindHeartbeat, &Heartbeat{Node: "w", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	cut := good.Bytes()[:good.Len()-3]
	if _, err := ReadMessage(bytes.NewReader(cut)); err == nil {
		t.Error("truncated body accepted")
	}
	// Corrupt payload with a declared slice length beyond the buffer.
	evil := []byte{0, 0, 0, 6, byte(KindIngestBatch), 0, 0, 0, 1, 0x7E} // camera=1, len=63
	if _, err := ReadMessage(bytes.NewReader(evil)); err == nil {
		t.Error("corrupt slice length accepted")
	}
}

func TestMarshalUnknownPayload(t *testing.T) {
	if _, err := Marshal(KindRegister, struct{}{}); err == nil {
		t.Error("marshal of unknown payload type succeeded")
	}
}

func TestTimeWindowContains(t *testing.T) {
	w := TimeWindow{From: t0, To: t0.Add(time.Minute)}
	if !w.Contains(t0) || !w.Contains(t0.Add(time.Minute)) || !w.Contains(t0.Add(30*time.Second)) {
		t.Error("window should be boundary-inclusive")
	}
	if w.Contains(t0.Add(-time.Nanosecond)) || w.Contains(t0.Add(time.Minute+time.Nanosecond)) {
		t.Error("window contains out-of-range instants")
	}
}

func TestTimestampPrecision(t *testing.T) {
	// Nanosecond precision must survive the round trip.
	msg := &TrackUpdate{TrackID: 1, Time: time.Unix(1234567890, 987654321).UTC()}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, KindTrackUpdate, msg); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := env.Payload.(*TrackUpdate).Time
	if !got.Equal(msg.Time) {
		t.Errorf("timestamp = %v, want %v", got, msg.Time)
	}
}

func BenchmarkMarshalIngestBatch(b *testing.B) {
	obs := make([]Observation, 100)
	feat := make([]float32, 64)
	for i := range obs {
		obs[i] = Observation{ObsID: uint64(i), Camera: 1, Time: t0, Pos: geo.Pt(1, 2), Feature: feat}
	}
	msg := &IngestBatch{Camera: 1, Observations: obs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(KindIngestBatch, msg); err != nil {
			b.Fatal(err)
		}
	}
}
