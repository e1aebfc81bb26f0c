package stindex

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

// hotRecords is recs in the store's form, the form the codec encodes.
func hotRecords(recs []Record) []hotRecord {
	out := make([]hotRecord, len(recs))
	for i := range recs {
		out[i] = hotOf(recs[i])
	}
	return out
}

// recordsEqual compares record slices bit-exactly: times by UnixNano,
// positions by float bits so NaN payloads and signed zeros must survive.
func recordsEqual(a, b []hotRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObsID != b[i].ObsID || a[i].TargetID != b[i].TargetID || a[i].Camera != b[i].Camera {
			return false
		}
		if a[i].ns != b[i].ns {
			return false
		}
		if math.Float64bits(a[i].Pos.X) != math.Float64bits(b[i].Pos.X) ||
			math.Float64bits(a[i].Pos.Y) != math.Float64bits(b[i].Pos.Y) {
			return false
		}
	}
	return true
}

// genChunkRecords draws a random record stream in one of several adversarial
// shapes: regular cadence vs. identical timestamps, duplicate ObsIDs,
// zero-movement tracks, grid-snapped (quantized-path) vs. free-float
// (XOR-path) positions. NaN-free, matching what ingest can produce.
func genChunkRecords(rng *rand.Rand, n int) []hotRecord {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	shape := rng.Intn(5)
	recs := make([]Record, n)
	t := base.Add(time.Duration(rng.Intn(1000)) * time.Second)
	x, y := rng.Float64()*1000-500, rng.Float64()*1000-500
	if shape != 3 { // snap to the 1/1024 m grid → quantized path
		x, y = math.Round(x*posScale)/posScale, math.Round(y*posScale)/posScale
	}
	for i := range recs {
		switch shape {
		case 0: // regular cadence, drifting track
			t = t.Add(33 * time.Millisecond)
			x += float64(rng.Intn(9)-4) / posScale
			y += float64(rng.Intn(9)-4) / posScale
		case 1: // identical timestamps, zero movement
		case 2: // irregular gaps, large jumps on-grid
			t = t.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
			x = math.Round((rng.Float64()*1e6-5e5)*posScale) / posScale
			y = math.Round((rng.Float64()*1e6-5e5)*posScale) / posScale
		case 3: // free floats → XOR path
			t = t.Add(time.Duration(rng.Intn(100)) * time.Millisecond)
			x += rng.NormFloat64()
			y += rng.NormFloat64()
		case 4: // out-of-order-ish: times jitter around the base
			t = base.Add(time.Duration(rng.Intn(10000)) * time.Millisecond)
		}
		obs := uint64(i + 1)
		if shape == 1 && i > 0 && rng.Intn(3) == 0 {
			obs = recs[i-1].ObsID // duplicate ObsIDs
		}
		recs[i] = Record{
			ObsID:    obs,
			TargetID: uint64(rng.Intn(4)), // including 0 = unassociated
			Camera:   uint32(rng.Intn(64)),
			Pos:      geo.Pt(x, y),
			Time:     t,
		}
	}
	return hotRecords(recs)
}

func TestChunkRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		recs := genChunkRecords(rng, 1+rng.Intn(300))
		data := appendChunk(nil, recs)
		got, err := decodeChunk(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !recordsEqual(recs, got) {
			t.Fatalf("trial %d: round trip mismatch (n=%d)", trial, len(recs))
		}
	}
}

func TestChunkRoundTripEdgeCases(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cases := map[string][]Record{
		"empty": nil,
		"single": {
			{ObsID: 1, TargetID: 2, Camera: 3, Pos: geo.Pt(4.5, -6.25), Time: base},
		},
		"negative zero": {
			{ObsID: 1, Pos: geo.Pt(math.Copysign(0, -1), 0), Time: base},
			{ObsID: 2, Pos: geo.Pt(0, math.Copysign(0, -1)), Time: base},
		},
		"id wraparound": {
			{ObsID: math.MaxUint64, TargetID: math.MaxUint64, Camera: math.MaxUint32, Pos: geo.Pt(1, 1), Time: base},
			{ObsID: 0, TargetID: 0, Camera: 0, Pos: geo.Pt(1, 1), Time: base.Add(time.Nanosecond)},
		},
		"huge coords off grid": {
			{ObsID: 1, Pos: geo.Pt(1e300, -1e300), Time: base},
			{ObsID: 2, Pos: geo.Pt(math.SmallestNonzeroFloat64, 1e-300), Time: base.Add(time.Second)},
		},
	}
	for name, cs := range cases {
		recs := hotRecords(cs)
		data := appendChunk(nil, recs)
		got, err := decodeChunk(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !recordsEqual(recs, got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestChunkDecodeFailClosed(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		{ObsID: 1, TargetID: 2, Camera: 3, Pos: geo.Pt(10, 20), Time: base},
		{ObsID: 2, TargetID: 2, Camera: 3, Pos: geo.Pt(10.5, 20.5), Time: base.Add(time.Second)},
	}
	data := appendChunk(nil, hotRecords(recs))

	// Unknown format tag: never fall back to v1.
	bad := append([]byte(nil), data...)
	bad[0] = 0x7f
	if _, err := decodeChunk(bad); !errors.Is(err, ErrUnknownChunkFormat) {
		t.Fatalf("unknown format tag: err = %v, want ErrUnknownChunkFormat", err)
	}
	if _, err := decodeChunk([]byte{0}); !errors.Is(err, ErrUnknownChunkFormat) {
		t.Fatalf("zero format tag: err = %v, want ErrUnknownChunkFormat", err)
	}

	// Unknown flag bit: the layout would differ, so this too fails closed.
	bad = append([]byte(nil), data...)
	bad[2] |= 0x80 // format(1 byte) + count uvarint(1 byte for n=2) → flags at offset 2
	if _, err := decodeChunk(bad); !errors.Is(err, ErrUnknownChunkFormat) {
		t.Fatalf("unknown flag bit: err = %v, want ErrUnknownChunkFormat", err)
	}

	// Every truncation errors; none may return partial records.
	for i := 0; i < len(data); i++ {
		if _, err := decodeChunk(data[:i]); err == nil {
			t.Fatalf("truncated at %d/%d bytes: decode succeeded", i, len(data))
		}
	}
	// Trailing garbage is corruption, not padding.
	if _, err := decodeChunk(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("trailing byte: err = %v, want ErrCorruptChunk", err)
	}
	// A record count larger than the chunk itself is rejected before
	// allocation.
	if _, err := decodeChunk([]byte{byte(chunkFormatV1), 0xff, 0xff, 0xff, 0x7f}); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("absurd count: err = %v, want ErrCorruptChunk", err)
	}
}

// FuzzChunkDecode holds two properties over arbitrary bytes: decoding never
// panics, and anything that decodes successfully re-encodes to a chunk that
// decodes back to the identical records (the codec is self-consistent even on
// crafted inputs, e.g. wrapped deltas or off-grid quantized accumulations).
func FuzzChunkDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	f.Add([]byte{})
	f.Add([]byte{byte(chunkFormatV1)})
	f.Add([]byte{byte(chunkFormatV1), 0})
	f.Add([]byte{0x7f, 1, 2, 3})
	for _, n := range []int{1, 3, 50} {
		f.Add(appendChunk(nil, genChunkRecords(rng, n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeChunk(data)
		if err != nil {
			return
		}
		enc := appendChunk(nil, recs)
		again, err := decodeChunk(enc)
		if err != nil {
			t.Fatalf("re-encode of decoded chunk fails to decode: %v", err)
		}
		if !recordsEqual(recs, again) {
			t.Fatalf("re-encode round trip diverged (n=%d)", len(recs))
		}
	})
}
