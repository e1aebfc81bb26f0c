package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"stcam/internal/geo"
)

// Generators for quick-based round-trip properties: structured random values
// for the two highest-volume messages (ingest batches and range results) and
// the full query envelope.

func randTime(rng *rand.Rand) time.Time {
	if rng.Intn(10) == 0 {
		return time.Time{} // zero times are legal on the wire
	}
	return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC()
}

func randFeature(rng *rand.Rand) []float32 {
	n := rng.Intn(8)
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

func randObservation(rng *rand.Rand) Observation {
	return Observation{
		ObsID:   rng.Uint64(),
		Camera:  rng.Uint32(),
		Time:    randTime(rng),
		Pos:     geo.Pt(rng.NormFloat64()*1e4, rng.NormFloat64()*1e4),
		Feature: randFeature(rng),
		TrueID:  rng.Uint64(),
	}
}

func randRecord(rng *rand.Rand) ResultRecord {
	return ResultRecord{
		ObsID:    rng.Uint64(),
		TargetID: rng.Uint64(),
		Camera:   rng.Uint32(),
		Pos:      geo.Pt(rng.NormFloat64()*1e4, rng.NormFloat64()*1e4),
		Time:     randTime(rng),
	}
}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	kind := KindOf(msg)
	body, err := Marshal(kind, msg)
	if err != nil {
		t.Fatalf("marshal %T: %v", msg, err)
	}
	out, err := Unmarshal(kind, body)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", msg, err)
	}
	return out
}

// randSource draws an ingest sender identity; empty (unsequenced) is a legal
// and common value.
func randSource(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return ""
	case 1:
		return "ingest-1"
	default:
		b := make([]byte, 1+rng.Intn(24))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
}

// TestQuickIngestBatchRoundTrip: arbitrary ingest batches survive the codec,
// including multi-camera observation sets and sequenced (Source, Seq)
// delivery stamps.
func TestQuickIngestBatchRoundTrip(t *testing.T) {
	f := func(seed int64, camID uint32, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &IngestBatch{
			Camera:    camID,
			Source:    randSource(rng),
			Seq:       rng.Uint64() >> uint(rng.Intn(64)), // includes 0 (unsequenced)
			FrameTime: randTime(rng),
		}
		for i := 0; i < int(n%32); i++ {
			m.Observations = append(m.Observations, randObservation(rng))
		}
		got := roundTrip(t, m)
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIngestAckRoundTrip: acks with the replication and replay fields
// survive the codec.
func TestQuickIngestAckRoundTrip(t *testing.T) {
	f := func(accepted, rejected, replicated uint16, replayed bool) bool {
		m := &IngestAck{
			Accepted:   int(accepted),
			Rejected:   int(rejected),
			Replicated: int(replicated),
			Replayed:   replayed,
		}
		return reflect.DeepEqual(roundTrip(t, m), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIngestBatchClockOnlyRoundTrip: a pure clock tick — no camera, no
// observations, only a frame time — is a legal batch and survives the codec.
func TestIngestBatchClockOnlyRoundTrip(t *testing.T) {
	m := &IngestBatch{Source: "ingest-7", Seq: 42, FrameTime: time.Unix(1700000000, 500).UTC()}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("clock-only batch changed in transit:\n got  %#v\n want %#v", got, m)
	}
	empty := &IngestBatch{}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, empty) {
		t.Fatalf("zero batch changed in transit:\n got  %#v\n want %#v", got, empty)
	}
}

// TestIngestBatchMaxSizeRoundTrip: a coalesced batch in the megabyte range
// (every camera of a large deployment in one frame) round-trips intact. The
// frame-size cap is the transport's: see TestFrameOversizeRefused in
// internal/cluster.
func TestIngestBatchMaxSizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := &IngestBatch{Source: "ingest-max", Seq: 1, FrameTime: randTime(rng)}
	for i := 0; i < 50000; i++ {
		m.Observations = append(m.Observations, Observation{
			ObsID:  uint64(i + 1),
			Camera: uint32(i % 1024),
			Time:   time.Unix(int64(i), 0).UTC(),
			Pos:    geo.Pt(float64(i%997), float64(i%991)),
		})
	}
	body, err := Marshal(KindIngestBatch, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 1<<20 {
		t.Fatalf("want a megabyte-range encoding, got %d bytes", len(body))
	}
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatal("large batch changed in transit")
	}
}

// TestQuickRangeResultRoundTrip: arbitrary result sets survive the codec.
func TestQuickRangeResultRoundTrip(t *testing.T) {
	f := func(seed int64, qid uint64, n uint8, trunc bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &RangeResult{QueryID: qid, Truncated: trunc, Asked: rng.Intn(64), Answered: rng.Intn(64)}
		for i := 0; i < int(n%32); i++ {
			m.Records = append(m.Records, randRecord(rng))
		}
		got := roundTrip(t, m)
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodedLenMatchesMarshal: EncodedLen is the exact encoded length for
// every golden payload and for range results whose record counts cross
// varint boundaries, with zero and pre-epoch record times.
func TestEncodedLenMatchesMarshal(t *testing.T) {
	check := func(name string, kind MsgKind, msg any) {
		t.Helper()
		enc, err := Marshal(kind, msg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		if n, err := EncodedLen(kind, msg); err != nil || n != len(enc) {
			t.Fatalf("%s: EncodedLen = %d, %v; encoded length %d", name, n, err, len(enc))
		}
	}
	for _, f := range goldenFixtures() {
		check(f.kind.String(), f.kind, f.msg)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 8191, 8192} {
		m := &RangeResult{QueryID: rng.Uint64(), Asked: 300, Answered: 299}
		for i := 0; i < n; i++ {
			r := randRecord(rng)
			if i%7 == 0 {
				r.Time = time.Unix(-rng.Int63n(4e9), rng.Int63n(1e9))
			}
			m.Records = append(m.Records, r)
		}
		check(fmt.Sprintf("RangeResult/%d", n), KindRangeResult, m)
	}
	if _, err := EncodedLen(KindRangeResult, struct{}{}); err == nil {
		t.Fatal("EncodedLen of an unknown payload did not error")
	}
}

// TestQuickQueriesRoundTrip: arbitrary query parameters survive the codec,
// including NaN-free extreme floats and inverted windows.
func TestQuickQueriesRoundTrip(t *testing.T) {
	f := func(seed int64, qid uint64, k int16, limit int16, cell float64) bool {
		rng := rand.New(rand.NewSource(seed))
		rect := geo.Rect{
			Min: geo.Pt(rng.NormFloat64()*1e6, rng.NormFloat64()*1e6),
			Max: geo.Pt(rng.NormFloat64()*1e6, rng.NormFloat64()*1e6),
		}
		window := TimeWindow{From: randTime(rng), To: randTime(rng)}
		msgs := []any{
			&RangeQuery{QueryID: qid, Rect: rect, Window: window, Limit: int(limit)},
			&KNNQuery{QueryID: qid, Center: rect.Min, Window: window, K: int(k), MaxDist2: rng.Float64() * 1e6},
			&CountQuery{QueryID: qid, Rect: rect, Window: window},
			&HeatmapQuery{QueryID: qid, Rect: rect, Window: window, CellSize: cell},
		}
		for _, m := range msgs {
			if !reflect.DeepEqual(roundTrip(t, m), m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeartbeatSummaryRoundTrip: heartbeats with arbitrary piggybacked
// worker summaries — including the no-summary and empty-summary cases —
// survive the codec.
func TestQuickHeartbeatSummaryRoundTrip(t *testing.T) {
	f := func(seed int64, seq uint64, cells uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Heartbeat{Node: "w1", Seq: seq, Load: rng.Float64() * 1e3, Stored: rng.Intn(1e6), Cameras: rng.Intn(64)}
		if rng.Intn(4) > 0 { // 1 in 4 heartbeats carries no summary
			s := &WorkerSummary{
				Epoch:    rng.Uint64() >> 32,
				Records:  rng.Intn(1e6),
				CellSize: 50 * float64(1+rng.Intn(8)),
			}
			if n := int(cells % 16); n > 0 {
				s.BucketFrom = randTime(rng)
				s.BucketWidth = time.Duration(1+rng.Intn(3600)) * time.Second
				for i := 0; i < n; i++ {
					c := SummaryCell{
						CX:    int32(rng.Intn(200) - 100),
						CY:    int32(rng.Intn(200) - 100),
						Count: rng.Int63n(1e6),
						Bounds: geo.Rect{
							Min: geo.Pt(rng.NormFloat64()*1e4, rng.NormFloat64()*1e4),
							Max: geo.Pt(rng.NormFloat64()*1e4, rng.NormFloat64()*1e4),
						},
					}
					for j := 0; j < rng.Intn(8); j++ {
						c.Buckets = append(c.Buckets, rng.Int63n(1e5))
					}
					s.Cells = append(s.Cells, c)
				}
			}
			m.Summary = s
		}
		return reflect.DeepEqual(roundTrip(t, m), m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecoderNeverPanics: the decoder must reject arbitrary garbage
// bytes with an error, never a panic or runaway allocation.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		body := make([]byte, int(n%2048))
		rng.Read(body)
		for kind := KindRegister; kind <= KindRangePart; kind++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panicked on kind %v: %v", kind, r)
					}
				}()
				Unmarshal(kind, body) //nolint:errcheck // errors are expected; panics are not
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickTruncationAlwaysErrors: every strict prefix of a valid encoding
// fails to decode (no silent partial reads).
func TestQuickTruncationAlwaysErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &IngestBatch{Camera: 7, Source: "ingest-1", Seq: 3, FrameTime: randTime(rng)}
	for i := 0; i < 5; i++ {
		m.Observations = append(m.Observations, randObservation(rng))
	}
	body, err := Marshal(KindIngestBatch, m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := Unmarshal(KindIngestBatch, body[:cut]); err == nil {
			// A truncation that still parses must decode to fewer
			// observations, never to corrupt data; with length-prefixed
			// slices any cut inside the payload must error.
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(body))
		}
	}
}
