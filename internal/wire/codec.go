package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The codec is a hand-rolled binary format rather than encoding/gob: message
// framing must be explicit for request multiplexing, the format must be
// stable across connections (gob's stream type-dictionary is per-connection
// state), and ingest batches are hot enough that reflection costs matter.
//
// Frame layout: 4-byte big-endian length, 1-byte kind, payload. The length
// covers everything after itself. If the kind byte has its high bit
// (kindFormatTag) set, a one-byte Format follows the kind and names the
// payload encoding; without the bit the payload is FormatV1. FormatV1 frames
// are always emitted untagged, so the stream stays byte-identical to the
// pre-format wire (see format.go and testdata/golden/).
//
// The codec comes in two API flavors per direction:
//
//	Marshal / Unmarshal            — value-returning, allocate per message.
//	AppendMarshal / UnmarshalInto  — append into a caller buffer / decode into
//	                                 a caller struct, reusing capacity.
//
// Hot paths pair the append flavor with pooled buffers (BorrowBuf/Release)
// for near-zero allocations per frame; see pool.go for the ownership rules.

// MaxFrameSize bounds a single frame; larger frames are rejected on both
// sides to keep a corrupt or malicious peer from forcing huge allocations.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// kindFormatTag is the kind-byte flag marking that a Format byte follows the
// kind. FormatV1 frames never carry it, which keeps them byte-identical to
// the pre-format encoding; MsgKind values must therefore stay below 0x80.
const kindFormatTag = 0x80

// Envelope pairs a message kind with its decoded payload.
type Envelope struct {
	Kind    MsgKind
	Payload any
}

// Marshal encodes a payload for the given kind into a fresh buffer.
func Marshal(kind MsgKind, payload any) ([]byte, error) {
	return AppendMarshal(nil, kind, payload)
}

// AppendMarshal appends the FormatV1 encoding of payload onto dst and returns
// the extended slice. It allocates only when dst lacks capacity, so a pooled
// or reused dst makes encoding allocation-free.
func AppendMarshal(dst []byte, kind MsgKind, payload any) ([]byte, error) {
	return appendV1(dst, kind, payload)
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

// Unmarshal decodes a FormatV1 payload of the given kind into a freshly
// allocated message.
func Unmarshal(kind MsgKind, body []byte) (any, error) {
	return UnmarshalFormat(FormatV1, kind, body)
}

// UnmarshalInto decodes a FormatV1 payload of the given kind into msg,
// reusing msg's existing slice capacity (Observations, Records, Feature
// backing arrays, strings left untouched when unchanged) instead of
// allocating. msg must be a pointer to the message struct matching kind.
//
// Reuse contract: the decode overwrites msg in place, including backing
// arrays reached through it, so a struct may be handed back for reuse only
// once nothing else references its previous contents. Decoded messages never
// alias body — the input buffer may be pooled and released immediately after.
func UnmarshalInto(kind MsgKind, body []byte, msg any) error {
	return UnmarshalIntoFormat(FormatV1, kind, body, msg)
}

// AppendFrame appends one framed FormatV1 message (length, kind, payload)
// onto dst and returns the extended slice.
func AppendFrame(dst []byte, kind MsgKind, payload any) ([]byte, error) {
	return AppendFrameFormat(dst, FormatV1, kind, payload)
}

// AppendFrameFormat appends one framed message in format f onto dst.
// FormatV1 frames are emitted untagged (no format byte, kind bit clear) so
// they stay byte-identical to the pre-format wire; any other format sets
// kindFormatTag on the kind byte and inserts the format byte after it.
func AppendFrameFormat(dst []byte, f Format, kind MsgKind, payload any) ([]byte, error) {
	if byte(kind)&kindFormatTag != 0 {
		return dst, fmt.Errorf("wire: kind %d collides with format tag bit", kind)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if f == FormatV1 {
		dst = append(dst, byte(kind))
	} else {
		dst = append(dst, byte(kind)|kindFormatTag, byte(f))
	}
	out, err := MarshalFormat(f, dst, kind, payload)
	if err != nil {
		return dst[:start], err
	}
	size := len(out) - start - 4
	if size > MaxFrameSize {
		return out[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(out[start:start+4], uint32(size))
	return out, nil
}

// WriteMessage encodes and writes one framed FormatV1 message. The frame is
// built in a pooled buffer and written with a single Write call.
func WriteMessage(w io.Writer, kind MsgKind, payload any) error {
	return WriteMessageFormat(w, FormatV1, kind, payload)
}

// WriteMessageFormat encodes and writes one framed message in format f.
func WriteMessageFormat(w io.Writer, f Format, kind MsgKind, payload any) error {
	b := BorrowBuf()
	defer b.Release()
	frame, err := AppendFrameFormat(b.B[:0], f, kind, payload)
	if err != nil {
		return err
	}
	b.B = frame
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadMessage reads and decodes one framed message, dispatching on the
// frame's format tag. Unknown formats are consumed from the stream (framing
// stays aligned) but error out — they are never mis-decoded as FormatV1.
func ReadMessage(r io.Reader) (Envelope, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, err // io.EOF passes through for clean shutdown
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size < 1 || size > MaxFrameSize {
		return Envelope{}, ErrFrameTooLarge
	}
	kb := hdr[4]
	kind := MsgKind(kb &^ kindFormatTag)
	format := FormatV1
	rest := int(size) - 1
	if kb&kindFormatTag != 0 {
		if rest < 1 {
			return Envelope{}, fmt.Errorf("wire: read format tag: %w", io.ErrUnexpectedEOF)
		}
		var fb [1]byte
		if _, err := io.ReadFull(r, fb[:]); err != nil {
			return Envelope{}, fmt.Errorf("wire: read format tag: %w", err)
		}
		format = Format(fb[0])
		rest--
	}
	b := BorrowBuf()
	defer b.Release()
	body := b.Grow(rest)
	if _, err := io.ReadFull(r, body); err != nil {
		return Envelope{}, fmt.Errorf("wire: read body: %w", err)
	}
	payload, err := UnmarshalFormat(format, kind, body)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Kind: kind, Payload: payload}, nil
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
