package wire

import (
	"encoding/binary"
	"fmt"
)

// The codec is a hand-rolled binary encoding rather than encoding/gob: the
// encoding must be stable across connections (gob's stream type-dictionary is
// per-connection state), and ingest batches are hot enough that reflection
// costs matter. There is one encoding, frozen by the golden frames under
// testdata/golden/. wire encodes and decodes payloads and frames nothing: the
// TCP transport in internal/cluster writes the only frame.
//
// The codec comes in two API flavors per direction:
//
//	Marshal / Unmarshal            — value-returning, allocate per message.
//	AppendMarshal / UnmarshalInto  — append into a caller buffer / decode into
//	                                 a caller struct, reusing capacity.
//
// Hot paths pair the append flavor with pooled buffers (BorrowBuf/Release)
// for near-zero allocations per message; see pool.go for the ownership rules.

// Marshal encodes a payload for the given kind into a fresh buffer.
func Marshal(kind MsgKind, payload any) ([]byte, error) {
	return AppendMarshal(nil, kind, payload)
}

// EncodedLen returns the exact length AppendMarshal would produce for payload
// without keeping the encoding. A RangeResult, whose answers run to
// megabytes, is measured without encoding its records: encoded bytes by
// their length, in O(1), and records one at a time through the encoder into
// a stack array. Any other payload is encoded into a pooled buffer.
func EncodedLen(kind MsgKind, payload any) (int, error) {
	if m, ok := payload.(*RangeResult); ok && (len(m.Records) > 0 || m.Encoded.N > 0) {
		if len(m.Records) > 0 && m.Encoded.N > 0 {
			return 0, fmt.Errorf("wire: RangeResult carries both records and encoded records")
		}
		head := *m
		head.Records, head.Encoded = nil, EncodedRecords{}
		n, err := EncodedLen(kind, &head)
		if err != nil {
			return 0, err
		}
		var scratch [64]byte // holds any one record; a longer one would only allocate
		// The head was measured with a one-byte zero record count.
		n += len(binary.AppendVarint(scratch[:0], int64(len(m.Records)+m.Encoded.N))) - 1 + len(m.Encoded.B)
		for i := range m.Records {
			e := encoder{buf: scratch[:0]}
			e.record(&m.Records[i])
			n += len(e.buf)
		}
		return n, nil
	}
	buf := BorrowBuf()
	b, err := AppendMarshal(buf.B[:0], kind, payload)
	n := len(b)
	buf.B = b
	buf.Release()
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Unmarshal decodes a payload of the given kind into a freshly allocated
// message. An unknown kind is an error.
func Unmarshal(kind MsgKind, body []byte) (any, error) {
	msg := newMessage(kind)
	if msg == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if err := UnmarshalInto(kind, body, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// KindOf returns the MsgKind for a payload type, or 0 when unknown.
func KindOf(payload any) MsgKind {
	switch payload.(type) {
	case *Register:
		return KindRegister
	case *RegisterAck:
		return KindRegisterAck
	case *Heartbeat:
		return KindHeartbeat
	case *HeartbeatAck:
		return KindHeartbeatAck
	case *IngestBatch:
		return KindIngestBatch
	case *IngestAck:
		return KindIngestAck
	case *RangeQuery:
		return KindRangeQuery
	case *RangeResult:
		return KindRangeResult
	case *KNNQuery:
		return KindKNNQuery
	case *KNNResult:
		return KindKNNResult
	case *CountQuery:
		return KindCountQuery
	case *CountResult:
		return KindCountResult
	case *TrajectoryQuery:
		return KindTrajectoryQuery
	case *TrajectoryResult:
		return KindTrajectoryResult
	case *InstallContinuous:
		return KindInstallContinuous
	case *RemoveContinuous:
		return KindRemoveContinuous
	case *ContinuousUpdate:
		return KindContinuousUpdate
	case *AssignCameras:
		return KindAssignCameras
	case *AssignAck:
		return KindAssignAck
	case *TrackStart:
		return KindTrackStart
	case *TrackPrime:
		return KindTrackPrime
	case *TrackHandoff:
		return KindTrackHandoff
	case *TrackUpdate:
		return KindTrackUpdate
	case *TrackStop:
		return KindTrackStop
	case *HeatmapQuery:
		return KindHeatmapQuery
	case *HeatmapResult:
		return KindHeatmapResult
	case *FilterQuery:
		return KindFilterQuery
	case *FilterResult:
		return KindFilterResult
	case *StatsQuery:
		return KindStatsQuery
	case *StatsResult:
		return KindStatsResult
	case *ClusterStatsQuery:
		return KindClusterStatsQuery
	case *ClusterStatsResult:
		return KindClusterStatsResult
	case *Replicate:
		return KindReplicate
	case *ReplicateAck:
		return KindReplicateAck
	case *LeaderQuery:
		return KindLeaderQuery
	case *LeaderInfo:
		return KindLeaderInfo
	case *Subscribe:
		return KindSubscribe
	case *SubscribeAck:
		return KindSubscribeAck
	case *PollUpdates:
		return KindPollUpdates
	case *PollResult:
		return KindPollResult
	case *Unsubscribe:
		return KindUnsubscribe
	case *UnsubscribeAck:
		return KindUnsubscribeAck
	case *Error:
		return KindError
	case *RangePart:
		return KindRangePart
	}
	return 0
}
