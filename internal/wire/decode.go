package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"stcam/internal/geo"
)

// There is one decode implementation — UnmarshalInto — and the
// value-returning Unmarshal is just the same code run against a freshly
// allocated struct (newMessage), so the two flavors cannot drift apart.
//
// Decode-into reuses capacity reachable from msg: slices are re-sliced when
// their backing arrays are big enough (length 0 on the wire decodes to nil,
// matching the value path exactly), strings are reassigned only when the
// bytes differ (the comparison does not allocate; stable tags like Source and
// node IDs cost nothing after the first decode), and nested structs recurse
// the same way. Every field of msg is overwritten — stale contents of a
// reused struct never leak into a decode.

// UnmarshalInto decodes a payload of the given kind into msg, reusing msg's
// existing slice capacity (Observations, Records, Feature backing arrays,
// strings left untouched when unchanged) instead of allocating. msg must be a
// pointer to the message struct matching kind.
//
// Reuse contract: the decode overwrites msg in place, including backing
// arrays reached through it, so a struct may be handed back for reuse only
// once nothing else references its previous contents. Decoded messages never
// alias body — the input buffer may be pooled and released immediately after.
func UnmarshalInto(kind MsgKind, body []byte, msg any) error {
	if k := KindOf(msg); k != kind {
		return fmt.Errorf("wire: cannot unmarshal kind %v into %T", kind, msg)
	}
	d := decoder{buf: body}
	switch m := msg.(type) {
	case *Register:
		d.nodeInto(&m.Node)
		d.strInto(&m.Addr)
		m.Capacity = int(d.varint())
	case *RegisterAck:
		m.Accepted = d.boolean()
		d.strInto(&m.Reason)
	case *Heartbeat:
		d.nodeInto(&m.Node)
		m.Seq = d.u64()
		m.Load = d.f64()
		m.Stored = int(d.varint())
		m.Cameras = int(d.varint())
		m.Summary = d.summaryInto(m.Summary)
	case *HeartbeatAck:
		m.Epoch = d.u64()
	case *IngestBatch:
		m.Camera = d.u32()
		d.strInto(&m.Source)
		m.Seq = d.u64()
		m.FrameTime = d.timestamp()
		sliceInto(&d, &m.Observations, (*decoder).observationInto)
	case *IngestAck:
		m.Accepted = int(d.varint())
		m.Rejected = int(d.varint())
		m.Replicated = int(d.varint())
		m.Replayed = d.boolean()
	case *RangeQuery:
		m.QueryID = d.u64()
		m.Rect = d.rect()
		m.Window = d.window()
		m.Limit = int(d.varint())
	case *RangeResult:
		m.QueryID = d.u64()
		sliceInto(&d, &m.Records, (*decoder).recordInto)
		m.Encoded = EncodedRecords{}
		m.Truncated = d.boolean()
		m.Asked = int(d.varint())
		m.Answered = int(d.varint())
	case *KNNQuery:
		m.QueryID = d.u64()
		m.Center = d.point()
		m.Window = d.window()
		m.K = int(d.varint())
		m.MaxDist2 = d.f64()
	case *KNNResult:
		m.QueryID = d.u64()
		sliceInto(&d, &m.Records, (*decoder).knnRecordInto)
		m.Asked = int(d.varint())
		m.Answered = int(d.varint())
	case *CountQuery:
		m.QueryID = d.u64()
		m.Rect = d.rect()
		m.Window = d.window()
	case *CountResult:
		m.QueryID = d.u64()
		m.Count = int(d.varint())
		m.Asked = int(d.varint())
		m.Answered = int(d.varint())
	case *TrajectoryQuery:
		m.QueryID = d.u64()
		m.TargetID = d.u64()
		m.Window = d.window()
	case *TrajectoryResult:
		m.QueryID = d.u64()
		sliceInto(&d, &m.Records, (*decoder).recordInto)
	case *InstallContinuous:
		m.QueryID = d.u64()
		m.Kind = ContinuousKind(d.varint())
		m.Rect = d.rect()
		m.Threshold = int(d.varint())
	case *RemoveContinuous:
		m.QueryID = d.u64()
	case *ContinuousUpdate:
		d.continuousUpdateInto(m)
	case *AssignCameras:
		m.Epoch = d.u64()
		sliceInto(&d, &m.Cameras, (*decoder).cameraInfoInto)
		sliceInto(&d, &m.Replicas, (*decoder).cameraInfoInto)
	case *AssignAck:
		m.Epoch = d.u64()
		m.Accepted = int(d.varint())
	case *TrackStart:
		m.TrackID = d.u64()
		m.Camera = d.u32()
		m.Feature = d.featureInto(m.Feature)
		m.Time = d.timestamp()
	case *TrackPrime:
		m.TrackID = d.u64()
		sliceInto(&d, &m.Cameras, (*decoder).u32Into)
		m.Feature = d.featureInto(m.Feature)
		m.Expires = d.timestamp()
	case *TrackHandoff:
		m.TrackID = d.u64()
		m.FromCamera = d.u32()
		m.ToCamera = d.u32()
		m.Feature = d.featureInto(m.Feature)
		m.Time = d.timestamp()
		m.Hops = int(d.varint())
	case *TrackUpdate:
		m.TrackID = d.u64()
		m.Camera = d.u32()
		m.Pos = d.point()
		m.Time = d.timestamp()
		m.Lost = d.boolean()
	case *TrackStop:
		m.TrackID = d.u64()
	case *HeatmapQuery:
		m.QueryID = d.u64()
		m.Rect = d.rect()
		m.Window = d.window()
		m.CellSize = d.f64()
	case *HeatmapResult:
		m.QueryID = d.u64()
		m.CellSize = d.f64()
		sliceInto(&d, &m.Cells, (*decoder).heatCellInto)
	case *FilterQuery:
		m.QueryID = d.u64()
		m.Rect = d.rect()
		m.Window = d.window()
		m.TargetID = d.u64()
		sliceInto(&d, &m.Cameras, (*decoder).u32Into)
		m.Limit = int(d.varint())
		d.strInto(&m.ForcePlan)
	case *FilterResult:
		m.QueryID = d.u64()
		sliceInto(&d, &m.Records, (*decoder).recordInto)
		d.strInto(&m.Plan)
		m.Truncated = d.boolean()
	case *StatsQuery:
		// empty payload
	case *StatsResult:
		d.statsResultInto(m)
	case *ClusterStatsQuery:
		// empty payload
	case *ClusterStatsResult:
		m.Epoch = d.u64()
		d.strInto(&m.Role)
		d.nodeInto(&m.Leader)
		d.strInto(&m.LeaderAddr)
		d.statsResultInto(&m.Coordinator)
		sliceInto(&d, &m.Workers, (*decoder).workerStatsEntryInto)
	case *Replicate:
		d.nodeInto(&m.Leader)
		d.strInto(&m.LeaderAddr)
		m.Epoch = d.u64()
		m.Commit = d.u64()
		m.FromIndex = d.u64()
		m.SnapIndex = d.u64()
		sliceInto(&d, &m.Records, (*decoder).controlRecordInto)
	case *ReplicateAck:
		m.Applied = d.u64()
		m.NeedFrom = d.u64()
	case *LeaderQuery:
		// empty payload
	case *LeaderInfo:
		d.nodeInto(&m.Node)
		d.strInto(&m.Addr)
		m.IsLeader = d.boolean()
		d.nodeInto(&m.Leader)
		d.strInto(&m.LeaderAddr)
		m.Epoch = d.u64()
		m.Applied = d.u64()
	case *Subscribe:
		m.Kind = ContinuousKind(d.varint())
		m.Rect = d.rect()
		m.Threshold = int(d.varint())
		d.strInto(&m.Tenant)
	case *SubscribeAck:
		m.SubID = d.u64()
		m.QueryID = d.u64()
		m.Shared = int(d.varint())
	case *PollUpdates:
		m.SubID = d.u64()
		m.Max = int(d.varint())
	case *PollResult:
		m.SubID = d.u64()
		sliceInto(&d, &m.Updates, (*decoder).continuousUpdateInto)
		m.Dropped = d.varint()
		m.Evicted = d.boolean()
	case *Unsubscribe:
		m.SubID = d.u64()
	case *UnsubscribeAck:
		m.Remaining = int(d.varint())
	case *Error:
		m.Code = int(d.varint())
		d.strInto(&m.Message)
	case *RangePart:
		m.QueryID = d.u64()
		d.recordBlockInto(&m.Records)
		m.Truncated = d.boolean()
		if d.err == nil && len(d.buf) != 0 {
			d.err = errTrailingBytes
		}
		if d.err != nil {
			m.Records.data, m.Records.idx = m.Records.data[:0], m.Records.idx[:0]
		}
	default:
		return fmt.Errorf("wire: cannot unmarshal into %T", msg)
	}
	if d.err != nil {
		return fmt.Errorf("wire: decode %v: %w", kind, d.err)
	}
	return nil
}

// newMessage allocates the zero message struct for a kind, or nil when the
// kind is unknown. It is the factory behind the value-returning Unmarshal.
func newMessage(kind MsgKind) any {
	switch kind {
	case KindRegister:
		return &Register{}
	case KindRegisterAck:
		return &RegisterAck{}
	case KindHeartbeat:
		return &Heartbeat{}
	case KindHeartbeatAck:
		return &HeartbeatAck{}
	case KindIngestBatch:
		return &IngestBatch{}
	case KindIngestAck:
		return &IngestAck{}
	case KindRangeQuery:
		return &RangeQuery{}
	case KindRangeResult:
		return &RangeResult{}
	case KindKNNQuery:
		return &KNNQuery{}
	case KindKNNResult:
		return &KNNResult{}
	case KindCountQuery:
		return &CountQuery{}
	case KindCountResult:
		return &CountResult{}
	case KindTrajectoryQuery:
		return &TrajectoryQuery{}
	case KindTrajectoryResult:
		return &TrajectoryResult{}
	case KindInstallContinuous:
		return &InstallContinuous{}
	case KindRemoveContinuous:
		return &RemoveContinuous{}
	case KindContinuousUpdate:
		return &ContinuousUpdate{}
	case KindAssignCameras:
		return &AssignCameras{}
	case KindAssignAck:
		return &AssignAck{}
	case KindTrackStart:
		return &TrackStart{}
	case KindTrackPrime:
		return &TrackPrime{}
	case KindTrackHandoff:
		return &TrackHandoff{}
	case KindTrackUpdate:
		return &TrackUpdate{}
	case KindTrackStop:
		return &TrackStop{}
	case KindHeatmapQuery:
		return &HeatmapQuery{}
	case KindHeatmapResult:
		return &HeatmapResult{}
	case KindFilterQuery:
		return &FilterQuery{}
	case KindFilterResult:
		return &FilterResult{}
	case KindStatsQuery:
		return &StatsQuery{}
	case KindStatsResult:
		return &StatsResult{}
	case KindClusterStatsQuery:
		return &ClusterStatsQuery{}
	case KindClusterStatsResult:
		return &ClusterStatsResult{}
	case KindReplicate:
		return &Replicate{}
	case KindReplicateAck:
		return &ReplicateAck{}
	case KindLeaderQuery:
		return &LeaderQuery{}
	case KindLeaderInfo:
		return &LeaderInfo{}
	case KindSubscribe:
		return &Subscribe{}
	case KindSubscribeAck:
		return &SubscribeAck{}
	case KindPollUpdates:
		return &PollUpdates{}
	case KindPollResult:
		return &PollResult{}
	case KindUnsubscribe:
		return &Unsubscribe{}
	case KindUnsubscribeAck:
		return &UnsubscribeAck{}
	case KindError:
		return &Error{}
	case KindRangePart:
		return &RangePart{}
	default:
		// Fail closed: an unknown kind yields nil, which Unmarshal
		// converts to an error. Falling off the switch would decode the same
		// way today, but only by accident of the caller — the explicit
		// default is the contract (and what the failclosed analyzer checks).
		return nil
	}
}

// --- primitive decoders ---

type decoder struct {
	buf []byte
	err error
}

var errShortBuffer = errors.New("short buffer")

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = errShortBuffer
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errShortBuffer
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) f32() float32 { return math.Float32frombits(d.u32()) }

func (d *decoder) boolean() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

func (d *decoder) str() string {
	var s string
	d.strInto(&s)
	return s
}

// strInto decodes a string, writing *s only when the bytes differ from its
// current value — the comparison against the raw bytes does not allocate, so
// stable strings (source tags, node IDs, plan names) decode allocation-free
// on reused structs.
func (d *decoder) strInto(s *string) {
	n := d.varint()
	if n < 0 || n > int64(len(d.buf)) {
		d.err = errShortBuffer
		*s = ""
		return
	}
	b := d.take(int(n))
	if *s != string(b) {
		*s = string(b)
	}
}

// nodeInto is strInto for NodeID fields.
func (d *decoder) nodeInto(id *NodeID) {
	n := d.varint()
	if n < 0 || n > int64(len(d.buf)) {
		d.err = errShortBuffer
		*id = ""
		return
	}
	b := d.take(int(n))
	if string(*id) != string(b) {
		*id = NodeID(b)
	}
}

// sliceLen reads a slice length and bounds-checks it against the remaining
// buffer so corrupt lengths cannot force huge allocations.
func (d *decoder) sliceLen() int {
	n := d.varint()
	if n < 0 || n > int64(len(d.buf)) {
		d.err = errShortBuffer
		return 0
	}
	return int(n)
}

// sliceInto decodes a counted sequence into *s, reusing its backing array
// when the capacity suffices. A zero count decodes to nil — identical to the
// value-returning path, so DeepEqual between the two flavors holds. Element
// decoders overwrite every field, so stale elements never survive a reuse.
func sliceInto[T any](d *decoder, s *[]T, elem func(*decoder, *T)) {
	n := d.sliceLen()
	if n == 0 {
		*s = nil
		return
	}
	out := *s
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]T, n)
	}
	for i := range out {
		elem(d, &out[i])
	}
	*s = out
}

func (d *decoder) point() geo.Point { return geo.Pt(d.f64(), d.f64()) }

func (d *decoder) rect() geo.Rect {
	return geo.Rect{Min: d.point(), Max: d.point()}
}

func (d *decoder) timestamp() time.Time {
	if !d.boolean() {
		return time.Time{}
	}
	sec := d.varint()
	nsec := d.varint()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, nsec).UTC()
}

func (d *decoder) window() TimeWindow {
	return TimeWindow{From: d.timestamp(), To: d.timestamp()}
}

func (d *decoder) feature() []float32 {
	return d.featureInto(nil)
}

// featureInto decodes a feature vector reusing f's backing array when it is
// large enough. Zero length decodes to nil.
func (d *decoder) featureInto(f []float32) []float32 {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	if cap(f) >= n {
		f = f[:n]
	} else {
		f = make([]float32, n)
	}
	for i := range f {
		f[i] = d.f32()
	}
	return f
}

func (d *decoder) u32Into(v *uint32)  { *v = d.u32() }
func (d *decoder) int64Into(v *int64) { *v = d.varint() }

func (d *decoder) observationInto(o *Observation) {
	o.ObsID = d.u64()
	o.Camera = d.u32()
	o.Time = d.timestamp()
	o.Pos = d.point()
	o.Feature = d.featureInto(o.Feature)
	o.TrueID = d.u64()
}

func (d *decoder) recordInto(r *ResultRecord) {
	r.ObsID = d.u64()
	r.TargetID = d.u64()
	r.Camera = d.u32()
	r.Pos = d.point()
	r.Time = d.timestamp()
}

// continuousUpdateInto mirrors encoder.continuousUpdate: one shared body
// decoding for standalone updates and PollResult batches.
func (d *decoder) continuousUpdateInto(m *ContinuousUpdate) {
	m.QueryID = d.u64()
	m.Time = d.timestamp()
	sliceInto(d, &m.Positive, (*decoder).recordInto)
	sliceInto(d, &m.Negative, (*decoder).recordInto)
	m.Count = int(d.varint())
}

func (d *decoder) knnRecordInto(r *KNNRecord) {
	d.recordInto(&r.ResultRecord)
	r.Dist2 = d.f64()
}

func (d *decoder) heatCellInto(c *HeatCell) {
	c.CX = int32(d.varint())
	c.CY = int32(d.varint())
	c.Count = d.varint()
}

func (d *decoder) cameraInfoInto(c *CameraInfo) {
	c.ID = d.u32()
	c.Pos = d.point()
	c.Orient = d.f64()
	c.HalfFOV = d.f64()
	c.Range = d.f64()
}

func (d *decoder) kvs() map[string]int64 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		v := d.varint()
		if d.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

func (d *decoder) histStats() map[string]HistStats {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]HistStats, n)
	for i := 0; i < n; i++ {
		k := d.str()
		var v HistStats
		v.Count = d.varint()
		v.Sum = d.varint()
		v.Min = d.varint()
		v.Max = d.varint()
		v.P50 = d.varint()
		v.P95 = d.varint()
		v.P99 = d.varint()
		if d.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

func (d *decoder) summaryCellInto(c *SummaryCell) {
	c.CX = int32(d.varint())
	c.CY = int32(d.varint())
	c.Count = d.varint()
	c.Bounds = d.rect()
	sliceInto(d, &c.Buckets, (*decoder).int64Into)
}

// summaryInto decodes the optional worker summary, reusing s (including its
// cell and bucket arrays) when the wire carries one and s is non-nil.
func (d *decoder) summaryInto(s *WorkerSummary) *WorkerSummary {
	if !d.boolean() {
		return nil
	}
	if s == nil {
		s = &WorkerSummary{}
	}
	s.Epoch = d.u64()
	s.Records = int(d.varint())
	s.CellSize = d.f64()
	s.BucketFrom = d.timestamp()
	s.BucketWidth = time.Duration(d.varint())
	sliceInto(d, &s.Cells, (*decoder).summaryCellInto)
	if d.err != nil {
		return nil
	}
	return s
}

func (d *decoder) statsResultInto(s *StatsResult) {
	d.nodeInto(&s.Node)
	s.Counters = d.kvs()
	s.Gauges = d.kvs()
	s.Histograms = d.histStats()
}

func (d *decoder) workerStatsEntryInto(w *WorkerStatsEntry) {
	d.nodeInto(&w.Node)
	d.strInto(&w.Addr)
	w.Alive = d.boolean()
	w.Load = d.f64()
	w.Stored = int(d.varint())
	w.Cameras = int(d.varint())
	w.Scraped = d.boolean()
	d.statsResultInto(&w.Stats)
}

func (d *decoder) assignEntryInto(a *AssignEntry) {
	a.Camera = d.u32()
	d.nodeInto(&a.Node)
	sliceInto(d, &a.Replicas, (*decoder).nodeInto)
}

func (d *decoder) controlRecordInto(r *ControlRecord) {
	r.Index = d.u64()
	r.Epoch = d.u64()
	r.Op = ControlOp(d.varint())
	sliceInto(d, &r.Cameras, (*decoder).cameraInfoInto)
	sliceInto(d, &r.Assign, (*decoder).assignEntryInto)
	r.Track.TrackID = d.u64()
	d.nodeInto(&r.Track.Owner)
	r.Track.LastCamera = d.u32()
	r.Track.Feature = d.featureInto(r.Track.Feature)
	r.Track.LastSeen = d.timestamp()
	r.Track.Handoffs = int(d.varint())
	d.nodeInto(&r.Member.Node)
	d.strInto(&r.Member.Addr)
	r.Member.Capacity = int(d.varint())
}
