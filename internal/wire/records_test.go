package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

// edgeTimes are the times a record key must order exactly as time.Time does:
// the zero Time, instants outside the int64-nanosecond range (before 1678,
// after 2262), equal seconds with different nanoseconds, and seconds so large
// that time.Time's internal count wraps.
var edgeTimes = []time.Time{
	{},
	time.Unix(-62135596800, 0).UTC(), // year 1: the zero instant, present
	time.Unix(-62135596800, 1).UTC(),
	time.Date(1600, 1, 1, 0, 0, 0, 5, time.UTC),
	time.Date(1677, 9, 21, 0, 12, 43, 145224191, time.UTC),
	time.Unix(0, math.MinInt64).UTC(),
	time.Unix(-1, 999999999).UTC(),
	time.Unix(0, 0).UTC(),
	time.Unix(1700000000, 0).UTC(),
	time.Unix(1700000000, 1).UTC(),
	time.Unix(1700000000, 999999999).UTC(),
	time.Unix(0, math.MaxInt64).UTC(),
	time.Date(2262, 4, 12, 0, 0, 0, 0, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	time.Unix(math.MaxInt64-unixToInternal+1, 7).UTC(), // internal seconds wrap
	time.Unix(math.MaxInt64, 0).UTC(),
	time.Unix(math.MinInt64, 3).UTC(),
}

// timeLess is the reference order: the merge's historical comparator.
func timeLess(a, b *ResultRecord) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.ObsID < b.ObsID
}

// TestRecordKeyOrdersAsTime: RecordKey.Less agrees with time.Time
// Before/Equal then ObsID on every pair of edge times, and on seeded random
// times, for keys built by Append and by the indexing decode alike.
func TestRecordKeyOrdersAsTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs []ResultRecord
	for i, tm := range edgeTimes {
		recs = append(recs, ResultRecord{ObsID: uint64(i % 3), Time: tm})
	}
	for i := 0; i < 200; i++ {
		recs = append(recs, ResultRecord{ObsID: uint64(rng.Intn(4)), Time: randTime(rng)})
	}
	blk := blockOf(recs...)
	dec := decodePart(t, &RangePart{Records: blk})
	if dec.Records.Len() != len(recs) {
		t.Fatalf("decoded %d records, want %d", dec.Records.Len(), len(recs))
	}
	for i := range recs {
		if got, want := dec.Records.Key(i), blk.Key(i); got != want {
			t.Fatalf("record %d (%v): decoded key %+v, appended key %+v", i, recs[i].Time, got, want)
		}
		for j := range recs {
			want := timeLess(&recs[i], &recs[j])
			if got := blk.Key(i).Less(blk.Key(j)); got != want {
				t.Fatalf("Less(%v #%d, %v #%d) = %v, time order says %v",
					recs[i].Time, recs[i].ObsID, recs[j].Time, recs[j].ObsID, got, want)
			}
		}
	}
}

// decodePart round-trips a RangePart through its frame.
func decodePart(t *testing.T, m *RangePart) *RangePart {
	t.Helper()
	body, err := Marshal(KindRangePart, m)
	if err != nil {
		t.Fatal(err)
	}
	out := &RangePart{}
	if err := UnmarshalInto(KindRangePart, body, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecordBlockMatchesRecordEncoding: a block's bytes are exactly the
// FormatV1 records a RangeResult frame carries, Record(i) slices out record
// i, and a RangePart frame decodes back to the same bytes without aliasing
// the frame.
func TestRecordBlockMatchesRecordEncoding(t *testing.T) {
	recs := []ResultRecord{
		{ObsID: 1, TargetID: 9, Camera: 3, Pos: geo.Pt(math.NaN(), math.Copysign(0, -1)), Time: time.Time{}},
		{ObsID: 2, Camera: 4, Pos: geo.Pt(1.5, -2), Time: time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC)},
		{ObsID: 3, TargetID: 1, Pos: geo.Pt(math.Inf(1), 0), Time: time.Date(3000, 1, 1, 0, 0, 0, 1, time.UTC)},
	}
	blk := blockOf(recs...)
	rr, err := Marshal(KindRangeResult, &RangeResult{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	// RangeResult body: QueryID, count, records, Truncated, Asked, Answered.
	if want := rr[9 : len(rr)-3]; !bytes.Equal(blk.Bytes(), want) {
		t.Fatalf("block bytes %x, RangeResult records %x", blk.Bytes(), want)
	}
	var joined []byte
	for i := range recs {
		e := encoder{}
		e.record(&recs[i])
		if !bytes.Equal(blk.Record(i), e.buf) {
			t.Fatalf("Record(%d) = %x, want %x", i, blk.Record(i), e.buf)
		}
		joined = append(joined, blk.Record(i)...)
	}
	if !bytes.Equal(joined, blk.Bytes()) {
		t.Fatal("records do not tile the block")
	}
	body, err := Marshal(KindRangePart, &RangePart{QueryID: 4, Records: blk})
	if err != nil {
		t.Fatal(err)
	}
	var got RangePart
	if err := UnmarshalInto(KindRangePart, body, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Records.Bytes(), blk.Bytes()) || got.Records.Len() != len(recs) {
		t.Fatalf("decoded block %x (%d records), want %x", got.Records.Bytes(), got.Records.Len(), blk.Bytes())
	}
	for i := range body {
		body[i] = 0xAA
	}
	if !bytes.Equal(got.Records.Bytes(), blk.Bytes()) {
		t.Fatal("decoded block aliases the frame body")
	}
}

// TestRangePartDecodeFailsClosed: the indexing decode rejects every damaged
// frame without a partial block.
func TestRangePartDecodeFailsClosed(t *testing.T) {
	recs := []ResultRecord{
		{ObsID: 1, Camera: 3, Pos: geo.Pt(1, 2), Time: time.Unix(1700000000, 5).UTC()},
		{ObsID: 2, Camera: 3, Pos: geo.Pt(1, 2), Time: time.Unix(1700000001, 5).UTC()},
	}
	good, err := Marshal(KindRangePart, &RangePart{QueryID: 1, Records: blockOf(recs...)})
	if err != nil {
		t.Fatal(err)
	}
	const countAt = 8                   // after QueryID
	const presenceAt = countAt + 1 + 36 // first record's presence byte
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"count beyond buffer": mutate(func(b []byte) []byte { b[countAt] = byte(2 * 100); return b }),
		"count past records":  mutate(func(b []byte) []byte { b[countAt] = 2 * 3; return b }),
		"bad presence byte":   mutate(func(b []byte) []byte { b[presenceAt] = 2; return b }),
		"bad varint": mutate(func(b []byte) []byte {
			bad := append(append([]byte(nil), b[:presenceAt+1]...), bytes.Repeat([]byte{0xff}, 11)...)
			return append(bad, b[presenceAt+1:]...)
		}),
		"trailing bytes": append(append([]byte(nil), good...), 0),
	}
	for cut := 0; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, body := range cases {
		var p RangePart
		if err := UnmarshalInto(KindRangePart, body, &p); err == nil {
			t.Errorf("%s: decoded %d records without error", name, p.Records.Len())
		} else if p.Records.Len() != 0 || len(p.Records.Bytes()) != 0 {
			t.Errorf("%s: error %v left a partial block of %d records", name, err, p.Records.Len())
		}
	}
	var p RangePart
	if err := UnmarshalInto(KindRangePart, good, &p); err != nil || p.Records.Len() != 2 {
		t.Fatalf("intact frame: %v, %d records", err, p.Records.Len())
	}
}

// TestEncodedRecordsFrame: a RangeResult carrying merged bytes frames exactly
// as one carrying the records, EncodedLen measures it without encoding, and
// Decode fails closed on damaged bytes.
func TestEncodedRecordsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := make([]ResultRecord, 50)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	blk := blockOf(recs...)
	enc := EncodedRecords{N: blk.Len(), B: blk.Bytes()}
	want, err := Marshal(KindRangeResult, &RangeResult{QueryID: 3, Records: recs, Truncated: true, Asked: 4, Answered: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := &RangeResult{QueryID: 3, Encoded: enc, Truncated: true, Asked: 4, Answered: 3}
	got, err := Marshal(KindRangeResult, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded-bytes frame differs from records frame")
	}
	if n, err := EncodedLen(KindRangeResult, m); err != nil || n != len(want) {
		t.Fatalf("EncodedLen = %d, %v; want %d", n, err, len(want))
	}
	back, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i].ObsID != recs[i].ObsID || !back[i].Time.Equal(recs[i].Time) {
			t.Fatalf("record %d decoded as %+v, want %+v", i, back[i], recs[i])
		}
	}
	if _, err := Marshal(KindRangeResult, &RangeResult{Records: recs, Encoded: enc}); err == nil {
		t.Fatal("RangeResult with both records and encoded bytes marshaled")
	}
	for name, bad := range map[string]EncodedRecords{
		"count beyond bytes": {N: enc.N + 1, B: enc.B},
		"count short":        {N: enc.N - 1, B: enc.B},
		"truncated":          {N: enc.N, B: enc.B[:len(enc.B)-1]},
		"negative":           {N: -1, B: enc.B},
		"bytes, no count":    {N: 0, B: enc.B},
	} {
		if _, err := bad.Decode(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
