package wire

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

// FuzzUnmarshal throws arbitrary (format, kind, body) triples at the codec's
// dispatch layer: UnmarshalFormat must either return a value or an error —
// never panic, never over-allocate on a hostile length prefix, and NEVER
// decode an unknown format tag as if it were FormatV1 (a future encoding
// mis-read as v1 would corrupt silently; erroring is the only safe answer).
// Anything FormatV1 does accept must survive a Marshal/Unmarshal round trip
// unchanged. The corpus is seeded from the committed golden frames, so every
// message kind's canonical v1 payload is a fuzz starting point.
func FuzzUnmarshal(f *testing.F) {
	seed := func(kind MsgKind, payload any) {
		body, err := Marshal(kind, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int(kind), byte(FormatV1), body)
	}
	t0 := time.Unix(1700000000, 0).UTC()
	// A heartbeat carrying a spatial summary covers the sketch codec the
	// pruned scatter path depends on.
	seed(KindHeartbeat, &Heartbeat{
		Node: "w1", Seq: 9, Load: 1.5,
		Summary: &WorkerSummary{
			Epoch: 3, Records: 12, CellSize: 200,
			BucketFrom: t0, BucketWidth: time.Minute,
			Cells: []SummaryCell{{CX: -1, CY: 2, Count: 12, Buckets: []int64{3, 0, 9}}},
		},
	})
	seed(KindKNNQuery, &KNNQuery{QueryID: 7, K: 10, MaxDist2: 2500, Window: TimeWindow{From: t0, To: t0.Add(time.Hour)}})
	seed(KindKNNResult, &KNNResult{QueryID: 7, Asked: 4, Answered: 3,
		Records: []KNNRecord{{ResultRecord: ResultRecord{ObsID: 1, Time: t0}, Dist2: 9}}})
	seed(KindIngestBatch, &IngestBatch{Source: "i1", Seq: 2, Observations: []Observation{{ObsID: 1, Camera: 3, Feature: []float32{0.5}}}})
	seed(KindError, &Error{Code: 1, Message: "boom"})
	// A worker's encoded range answer: the indexing decode's strict checks
	// (presence byte, count bound, trailing bytes) start from valid records.
	seed(KindRangePart, &RangePart{QueryID: 8, Truncated: true, Records: blockOf(
		ResultRecord{ObsID: 1, TargetID: 2, Camera: 3, Time: t0},
		ResultRecord{ObsID: 2, Camera: 3},
	)})

	// Seed every kind's canonical payload from the committed golden frames
	// (stripping the 5-byte frame header), plus mutations of the format tag
	// so the dispatch-rejection path starts in the corpus.
	for _, fx := range goldenFixtures() {
		frame, err := os.ReadFile(goldenPath(fx.kind))
		if err != nil {
			continue // golden not generated yet; fixture seeds above still apply
		}
		if len(frame) < 5 {
			f.Fatalf("golden frame for %v shorter than a header", fx.kind)
		}
		body := frame[5:]
		f.Add(int(fx.kind), byte(FormatV1), body)
		f.Add(int(fx.kind), byte(0), body)    // reserved format 0
		f.Add(int(fx.kind), byte(0x7f), body) // far-future format
	}

	f.Fuzz(func(t *testing.T, kind int, format byte, body []byte) {
		v, err := UnmarshalFormat(Format(format), MsgKind(kind), body)
		if Format(format) != FormatV1 {
			// Unknown format: must error cleanly, and specifically with the
			// dispatch error — not fall through to a v1 decode.
			if err == nil {
				t.Fatalf("unknown format 0x%02x decoded (kind %d) instead of erroring", format, kind)
			}
			if !errors.Is(err, ErrUnknownFormat) {
				t.Fatalf("unknown format 0x%02x: got %v, want ErrUnknownFormat", format, err)
			}
			return
		}
		if err != nil {
			return
		}
		out, err := Marshal(MsgKind(kind), v)
		if err != nil {
			t.Fatalf("decoded %T does not re-marshal: %v", v, err)
		}
		// The decode-into path must agree with the value path on every input
		// the value path accepts.
		into := newMessageV1(MsgKind(kind))
		if err := UnmarshalInto(MsgKind(kind), body, into); err != nil {
			t.Fatalf("value path accepted but decode-into rejected: %v", err)
		}
		outInto, err := Marshal(MsgKind(kind), into)
		if err != nil {
			t.Fatalf("decode-into result does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, outInto) {
			t.Fatalf("decode-into disagrees with value decode on fuzz input:\n value %x\n into  %x", out, outInto)
		}
		v2, err := Unmarshal(MsgKind(kind), out)
		if err != nil {
			t.Fatalf("re-marshaled %T does not decode: %v", v, err)
		}
		// Compare re-encodings rather than values: DeepEqual rejects
		// NaN == NaN, but the codec preserves float bit patterns exactly,
		// so equal canonical bytes is the stronger and correct oracle.
		out2, err := Marshal(MsgKind(kind), v2)
		if err != nil {
			t.Fatalf("second re-marshal of %T failed: %v", v, err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip changed encoding of %T:\n first %x\nsecond %x", v, out, out2)
		}
	})
}
