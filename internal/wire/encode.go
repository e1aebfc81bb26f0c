package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"stcam/internal/geo"
)

// FormatV1 encoding. appendV1 is append-style: it extends dst in place and
// allocates only when dst lacks capacity, so hot paths can encode into pooled
// buffers with zero allocations. The byte layout is frozen by the golden
// frames under testdata/golden/ — any change here is a new Format, not an
// edit to this one.

// appendV1 appends the FormatV1 encoding of payload onto dst.
func appendV1(dst []byte, kind MsgKind, payload any) ([]byte, error) {
	e := encoder{buf: dst}
	switch m := payload.(type) {
	case *Register:
		e.str(string(m.Node))
		e.str(m.Addr)
		e.varint(int64(m.Capacity))
	case *RegisterAck:
		e.boolean(m.Accepted)
		e.str(m.Reason)
	case *Heartbeat:
		e.str(string(m.Node))
		e.u64(m.Seq)
		e.f64(m.Load)
		e.varint(int64(m.Stored))
		e.varint(int64(m.Cameras))
		e.summary(m.Summary)
	case *HeartbeatAck:
		e.u64(m.Epoch)
	case *IngestBatch:
		e.u32(m.Camera)
		e.str(m.Source)
		e.u64(m.Seq)
		e.timestamp(m.FrameTime)
		e.varint(int64(len(m.Observations)))
		for i := range m.Observations {
			e.observation(&m.Observations[i])
		}
	case *IngestAck:
		e.varint(int64(m.Accepted))
		e.varint(int64(m.Rejected))
		e.varint(int64(m.Replicated))
		e.boolean(m.Replayed)
	case *RangeQuery:
		e.u64(m.QueryID)
		e.rect(m.Rect)
		e.window(m.Window)
		e.varint(int64(m.Limit))
	case *RangeResult:
		e.u64(m.QueryID)
		if err := e.rangeRecords(m); err != nil {
			return dst, err
		}
		e.boolean(m.Truncated)
		e.varint(int64(m.Asked))
		e.varint(int64(m.Answered))
	case *KNNQuery:
		e.u64(m.QueryID)
		e.point(m.Center)
		e.window(m.Window)
		e.varint(int64(m.K))
		e.f64(m.MaxDist2)
	case *KNNResult:
		e.u64(m.QueryID)
		e.varint(int64(len(m.Records)))
		for i := range m.Records {
			e.record(&m.Records[i].ResultRecord)
			e.f64(m.Records[i].Dist2)
		}
		e.varint(int64(m.Asked))
		e.varint(int64(m.Answered))
	case *CountQuery:
		e.u64(m.QueryID)
		e.rect(m.Rect)
		e.window(m.Window)
	case *CountResult:
		e.u64(m.QueryID)
		e.varint(int64(m.Count))
		e.varint(int64(m.Asked))
		e.varint(int64(m.Answered))
	case *TrajectoryQuery:
		e.u64(m.QueryID)
		e.u64(m.TargetID)
		e.window(m.Window)
	case *TrajectoryResult:
		e.u64(m.QueryID)
		e.varint(int64(len(m.Records)))
		for i := range m.Records {
			e.record(&m.Records[i])
		}
	case *InstallContinuous:
		e.u64(m.QueryID)
		e.varint(int64(m.Kind))
		e.rect(m.Rect)
		e.varint(int64(m.Threshold))
	case *RemoveContinuous:
		e.u64(m.QueryID)
	case *ContinuousUpdate:
		e.continuousUpdate(m)
	case *AssignCameras:
		e.u64(m.Epoch)
		e.cameraInfos(m.Cameras)
		e.cameraInfos(m.Replicas)
	case *AssignAck:
		e.u64(m.Epoch)
		e.varint(int64(m.Accepted))
	case *TrackStart:
		e.u64(m.TrackID)
		e.u32(m.Camera)
		e.feature(m.Feature)
		e.timestamp(m.Time)
	case *TrackPrime:
		e.u64(m.TrackID)
		e.varint(int64(len(m.Cameras)))
		for _, c := range m.Cameras {
			e.u32(c)
		}
		e.feature(m.Feature)
		e.timestamp(m.Expires)
	case *TrackHandoff:
		e.u64(m.TrackID)
		e.u32(m.FromCamera)
		e.u32(m.ToCamera)
		e.feature(m.Feature)
		e.timestamp(m.Time)
		e.varint(int64(m.Hops))
	case *TrackUpdate:
		e.u64(m.TrackID)
		e.u32(m.Camera)
		e.point(m.Pos)
		e.timestamp(m.Time)
		e.boolean(m.Lost)
	case *TrackStop:
		e.u64(m.TrackID)
	case *HeatmapQuery:
		e.u64(m.QueryID)
		e.rect(m.Rect)
		e.window(m.Window)
		e.f64(m.CellSize)
	case *HeatmapResult:
		e.u64(m.QueryID)
		e.f64(m.CellSize)
		e.varint(int64(len(m.Cells)))
		for _, c := range m.Cells {
			e.varint(int64(c.CX))
			e.varint(int64(c.CY))
			e.varint(c.Count)
		}
	case *FilterQuery:
		e.u64(m.QueryID)
		e.rect(m.Rect)
		e.window(m.Window)
		e.u64(m.TargetID)
		e.varint(int64(len(m.Cameras)))
		for _, c := range m.Cameras {
			e.u32(c)
		}
		e.varint(int64(m.Limit))
		e.str(m.ForcePlan)
	case *FilterResult:
		e.u64(m.QueryID)
		e.varint(int64(len(m.Records)))
		for i := range m.Records {
			e.record(&m.Records[i])
		}
		e.str(m.Plan)
		e.boolean(m.Truncated)
	case *StatsQuery:
		// empty payload
	case *StatsResult:
		e.statsResult(m)
	case *ClusterStatsQuery:
		// empty payload
	case *ClusterStatsResult:
		e.u64(m.Epoch)
		e.str(m.Role)
		e.str(string(m.Leader))
		e.str(m.LeaderAddr)
		e.statsResult(&m.Coordinator)
		e.varint(int64(len(m.Workers)))
		for i := range m.Workers {
			w := &m.Workers[i]
			e.str(string(w.Node))
			e.str(w.Addr)
			e.boolean(w.Alive)
			e.f64(w.Load)
			e.varint(int64(w.Stored))
			e.varint(int64(w.Cameras))
			e.boolean(w.Scraped)
			e.statsResult(&w.Stats)
		}
	case *Replicate:
		e.str(string(m.Leader))
		e.str(m.LeaderAddr)
		e.u64(m.Epoch)
		e.u64(m.Commit)
		e.u64(m.FromIndex)
		e.u64(m.SnapIndex)
		e.varint(int64(len(m.Records)))
		for i := range m.Records {
			e.controlRecord(&m.Records[i])
		}
	case *ReplicateAck:
		e.u64(m.Applied)
		e.u64(m.NeedFrom)
	case *LeaderQuery:
		// empty payload
	case *LeaderInfo:
		e.str(string(m.Node))
		e.str(m.Addr)
		e.boolean(m.IsLeader)
		e.str(string(m.Leader))
		e.str(m.LeaderAddr)
		e.u64(m.Epoch)
		e.u64(m.Applied)
	case *Subscribe:
		e.varint(int64(m.Kind))
		e.rect(m.Rect)
		e.varint(int64(m.Threshold))
		e.str(m.Tenant)
	case *SubscribeAck:
		e.u64(m.SubID)
		e.u64(m.QueryID)
		e.varint(int64(m.Shared))
	case *PollUpdates:
		e.u64(m.SubID)
		e.varint(int64(m.Max))
	case *PollResult:
		e.u64(m.SubID)
		e.varint(int64(len(m.Updates)))
		for i := range m.Updates {
			e.continuousUpdate(&m.Updates[i])
		}
		e.varint(m.Dropped)
		e.boolean(m.Evicted)
	case *Unsubscribe:
		e.u64(m.SubID)
	case *UnsubscribeAck:
		e.varint(int64(m.Remaining))
	case *Error:
		e.varint(int64(m.Code))
		e.str(m.Message)
	case *RangePart:
		e.u64(m.QueryID)
		e.varint(int64(m.Records.Len()))
		e.buf = append(e.buf, m.Records.data...)
		e.boolean(m.Truncated)
	default:
		return dst, fmt.Errorf("wire: cannot marshal %T as %v", payload, kind)
	}
	return e.buf, nil
}

// --- primitive encoders ---

type encoder struct {
	buf []byte
}

func (e *encoder) u32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

func (e *encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) f32(v float32) { e.u32(math.Float32bits(v)) }

func (e *encoder) boolean(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s string) {
	e.varint(int64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) point(p geo.Point) {
	e.f64(p.X)
	e.f64(p.Y)
}

func (e *encoder) rect(r geo.Rect) {
	e.point(r.Min)
	e.point(r.Max)
}

func (e *encoder) timestamp(t time.Time) {
	if t.IsZero() {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.varint(t.Unix())
	e.varint(int64(t.Nanosecond()))
}

func (e *encoder) window(w TimeWindow) {
	e.timestamp(w.From)
	e.timestamp(w.To)
}

func (e *encoder) feature(f []float32) {
	e.varint(int64(len(f)))
	for _, v := range f {
		e.f32(v)
	}
}

func (e *encoder) observation(o *Observation) {
	e.u64(o.ObsID)
	e.u32(o.Camera)
	e.timestamp(o.Time)
	e.point(o.Pos)
	e.feature(o.Feature)
	e.u64(o.TrueID)
}

func (e *encoder) record(r *ResultRecord) {
	e.u64(r.ObsID)
	e.u64(r.TargetID)
	e.u32(r.Camera)
	e.point(r.Pos)
	e.timestamp(r.Time)
}

// continuousUpdate is the shared body encoding of one ContinuousUpdate,
// byte-identical whether the update travels standalone (KindContinuousUpdate)
// or inside a PollResult batch.
func (e *encoder) continuousUpdate(m *ContinuousUpdate) {
	e.u64(m.QueryID)
	e.timestamp(m.Time)
	e.varint(int64(len(m.Positive)))
	for i := range m.Positive {
		e.record(&m.Positive[i])
	}
	e.varint(int64(len(m.Negative)))
	for i := range m.Negative {
		e.record(&m.Negative[i])
	}
	e.varint(int64(m.Count))
}

func (e *encoder) cameraInfos(cs []CameraInfo) {
	e.varint(int64(len(cs)))
	for i := range cs {
		c := &cs[i]
		e.u32(c.ID)
		e.point(c.Pos)
		e.f64(c.Orient)
		e.f64(c.HalfFOV)
		e.f64(c.Range)
	}
}

func (e *encoder) kvs(m map[string]int64) {
	e.varint(int64(len(m)))
	// Deterministic order is not required on the wire; readers rebuild maps.
	for k, v := range m {
		e.str(k)
		e.varint(v)
	}
}

func (e *encoder) histStats(m map[string]HistStats) {
	e.varint(int64(len(m)))
	for k, v := range m {
		e.str(k)
		e.varint(v.Count)
		e.varint(v.Sum)
		e.varint(v.Min)
		e.varint(v.Max)
		e.varint(v.P50)
		e.varint(v.P95)
		e.varint(v.P99)
	}
}

func (e *encoder) summary(s *WorkerSummary) {
	if s == nil {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.u64(s.Epoch)
	e.varint(int64(s.Records))
	e.f64(s.CellSize)
	e.timestamp(s.BucketFrom)
	e.varint(int64(s.BucketWidth))
	e.varint(int64(len(s.Cells)))
	for i := range s.Cells {
		c := &s.Cells[i]
		e.varint(int64(c.CX))
		e.varint(int64(c.CY))
		e.varint(c.Count)
		e.rect(c.Bounds)
		e.varint(int64(len(c.Buckets)))
		for _, b := range c.Buckets {
			e.varint(b)
		}
	}
}

func (e *encoder) statsResult(s *StatsResult) {
	e.str(string(s.Node))
	e.kvs(s.Counters)
	e.kvs(s.Gauges)
	e.histStats(s.Histograms)
}

func (e *encoder) controlRecord(r *ControlRecord) {
	e.u64(r.Index)
	e.u64(r.Epoch)
	e.varint(int64(r.Op))
	e.cameraInfos(r.Cameras)
	e.varint(int64(len(r.Assign)))
	for i := range r.Assign {
		a := &r.Assign[i]
		e.u32(a.Camera)
		e.str(string(a.Node))
		e.varint(int64(len(a.Replicas)))
		for _, n := range a.Replicas {
			e.str(string(n))
		}
	}
	e.u64(r.Track.TrackID)
	e.str(string(r.Track.Owner))
	e.u32(r.Track.LastCamera)
	e.feature(r.Track.Feature)
	e.timestamp(r.Track.LastSeen)
	e.varint(int64(r.Track.Handoffs))
	e.str(string(r.Member.Node))
	e.str(r.Member.Addr)
	e.varint(int64(r.Member.Capacity))
}
