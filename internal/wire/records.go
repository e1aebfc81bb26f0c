package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// A range answer's records are encoded once, at the worker, and only copied
// after that. The worker appends each matching record to a RecordBlock, which
// keeps the encoded record bytes back to back plus, per record, its order
// key and end offset. The block travels in a RangePart; the coordinator's
// indexing decode rebuilds the keys without materializing records, and the
// coordinator merges the workers' blocks by key into one EncodedRecords —
// count and bytes, no keys — that a RangeResult encodes by copying. Nothing
// here holds a pointer, so neither the merge inputs nor a cached answer cost
// the garbage collector a scan.

// unixToInternal is the offset from Unix seconds to the seconds since year 1
// that time.Time compares (see package time).
const unixToInternal int64 = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 24 * 60 * 60

// minRecordLen is the shortest encoded record: ObsID, TargetID, Camera,
// position, and an absent timestamp's presence byte. maxRecordLen adds the
// longest seconds and nanoseconds varints.
const (
	minRecordLen = 8 + 8 + 4 + 16 + 1
	maxRecordLen = minRecordLen + 2*binary.MaxVarintLen64
)

// RecordKey orders result records as the merged answer lists them: by Time,
// compared as time.Time.Before and Equal compare it (wall clock, any
// location, including the zero Time and times outside the int64-nanosecond
// range), then by ObsID.
type RecordKey struct {
	sec  int64 // seconds since year 1, wrapping exactly as time.Time's do
	nsec uint32
	obs  uint64
}

// keyOf returns the order key of a record with time t and ObsID obs.
func keyOf(t time.Time, obs uint64) RecordKey {
	return RecordKey{sec: t.Unix() + unixToInternal, nsec: uint32(t.Nanosecond()), obs: obs}
}

// Less reports whether a orders before b.
func (a RecordKey) Less(b RecordKey) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.obs < b.obs
}

// RecordBlock is the pointer-free carrier of one worker's encoded range
// answer: ResultRecord encodings back to back, with each record's
// order key and end offset. Build it with Append, or receive it decoded from
// a RangePart; either way its records are in the order they were appended.
type RecordBlock struct {
	data []byte
	idx  []recordIndex
}

// recordIndex is one record's RecordKey, flattened with the end offset of
// its bytes so the entry stays 24 bytes.
type recordIndex struct {
	sec  int64
	obs  uint64
	nsec uint32
	end  uint32
}

// Append encodes r onto the block.
func (b *RecordBlock) Append(r *ResultRecord) {
	e := encoder{buf: b.data}
	e.record(r)
	if len(e.buf) > math.MaxUint32 {
		panic("wire: record block exceeds 4 GiB")
	}
	b.data = e.buf
	k := keyOf(r.Time, r.ObsID)
	b.idx = append(b.idx, recordIndex{sec: k.sec, obs: k.obs, nsec: k.nsec, end: uint32(len(b.data))})
}

// Grow reserves room for n more records, so appending them does not
// reallocate.
func (b *RecordBlock) Grow(n int) {
	b.data = slices.Grow(b.data, n*maxRecordLen)
	b.idx = slices.Grow(b.idx, n)
}

// Len returns the number of records in the block.
func (b *RecordBlock) Len() int { return len(b.idx) }

// Key returns record i's order key.
func (b *RecordBlock) Key(i int) RecordKey {
	x := &b.idx[i]
	return RecordKey{sec: x.sec, nsec: x.nsec, obs: x.obs}
}

// Record returns record i's encoded bytes. The slice aliases the block.
func (b *RecordBlock) Record(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = b.idx[i-1].end
	}
	return b.data[start:b.idx[i].end]
}

// Bytes returns the block's records' encoded bytes, back to back. The slice
// aliases the block.
func (b *RecordBlock) Bytes() []byte { return b.data }

// EncodedRecords is a merged range answer in wire form: N encoded result
// records back to back in B, without per-record keys. A RangeResult carrying
// it encodes by copying B; Decode materializes the records.
type EncodedRecords struct {
	N int
	B []byte
}

// Decode returns the records. It fails closed: a truncated or malformed
// record, or bytes left over after N records, is an error.
func (e EncodedRecords) Decode() ([]ResultRecord, error) {
	if e.N < 0 || e.N > len(e.B)/minRecordLen {
		return nil, fmt.Errorf("wire: %d encoded records in %d bytes", e.N, len(e.B))
	}
	if e.N == 0 && len(e.B) == 0 {
		return nil, nil
	}
	d := decoder{buf: e.B}
	out := make([]ResultRecord, e.N)
	for i := range out {
		d.recordInto(&out[i])
	}
	if d.err == nil && len(d.buf) != 0 {
		d.err = errTrailingBytes
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode encoded records: %w", d.err)
	}
	return out, nil
}

var (
	errBadPresence   = errors.New("timestamp presence byte not 0 or 1")
	errTrailingBytes = errors.New("trailing bytes after records")
)

// recordBlockInto is the indexing decode of a counted record sequence: it
// runs recordInto's checks on every record, plus a strict presence byte (the
// bytes are forwarded verbatim, so they must be canonical), builds each key
// from the time exactly as timestamp() builds it, and copies the records'
// bytes into b — never aliasing the input, which may be a pooled buffer.
// b's capacity is reused; on error the caller empties b.
func (d *decoder) recordBlockInto(b *RecordBlock) {
	b.data, b.idx = b.data[:0], b.idx[:0]
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return
	}
	if n > len(d.buf)/minRecordLen {
		d.err = errShortBuffer
		return
	}
	start := d.buf
	if cap(b.idx) < n {
		b.idx = make([]recordIndex, 0, n)
	}
	for i := 0; i < n; i++ {
		obs := d.u64()
		d.take(8 + 4 + 16) // TargetID, Camera, position
		var t time.Time
		if p := d.take(1); p != nil {
			switch p[0] {
			case 0:
			case 1:
				sec, nsec := d.varint(), d.varint()
				t = time.Unix(sec, nsec).UTC()
			default:
				d.err = errBadPresence
			}
		}
		if d.err != nil {
			return
		}
		k := keyOf(t, obs)
		b.idx = append(b.idx, recordIndex{sec: k.sec, obs: obs, nsec: k.nsec, end: uint32(len(start) - len(d.buf))})
	}
	b.data = append(b.data, start[:len(start)-len(d.buf)]...)
}

// rangeRecords encodes a RangeResult's records: Encoded's bytes when it carries
// any, else Records one by one.
func (e *encoder) rangeRecords(m *RangeResult) error {
	if m.Encoded.N == 0 && len(m.Encoded.B) == 0 {
		e.varint(int64(len(m.Records)))
		for i := range m.Records {
			e.record(&m.Records[i])
		}
		return nil
	}
	if len(m.Records) > 0 || m.Encoded.N <= 0 {
		return fmt.Errorf("wire: RangeResult with %d records and %d encoded records in %d bytes", len(m.Records), m.Encoded.N, len(m.Encoded.B))
	}
	e.varint(int64(m.Encoded.N))
	e.buf = append(e.buf, m.Encoded.B...)
	return nil
}
