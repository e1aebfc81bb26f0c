package stindex

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"stcam/internal/geo"
)

// This file is the sealed-chunk codec: once a run of observations ages past
// the store's seal horizon it is compacted into an immutable, delta-compressed
// byte blob. The chunk tag is the repository's only format tag: sealed bytes
// are the one encoding that could outlive the binary that wrote them, while
// the wire codec has a single encoding and no RPC frame outlives the process
// that reads it. Following metrictank's chunk format enum, byte 0 names the
// encoding, decoding dispatches on that tag, and an unknown tag or flag is a
// clean error — never a fallback to v1, since mis-decoding a future encoding
// as v1 would corrupt query answers silently.

// chunkFormat tags one encoding of a sealed chunk.
type chunkFormat byte

const (
	// chunkFormatV1 is a columnar delta encoding. Layout after the tag:
	//
	//	uvarint record count n (0 ends the chunk)
	//	byte    flags (bit 0: positions quantized)
	//	uvarint time unit (GCD of successive deltas, ns)
	//	varint  first timestamp (ns), then n-1 varint deltas in units
	//	uvarint first ObsID, then n-1 zigzag deltas
	//	uvarint first TargetID, then n-1 zigzag deltas
	//	uvarint first Camera, then n-1 zigzag deltas
	//	positions, X column then Y column:
	//	  quantized: varint first scaled coord, then n-1 zigzag deltas
	//	  raw: 8-byte big-endian float bits, then n-1 XOR'd values as
	//	       (significant-byte count, that many big-endian bytes)
	//
	// Tag 0 is reserved as detectably invalid.
	chunkFormatV1 chunkFormat = 1
)

// chunkFlagQuantized marks a chunk whose every coordinate sits exactly on the
// 1/posScale-meter grid, encoded as integer deltas instead of float XOR.
const chunkFlagQuantized byte = 1 << 0

// posScale is the quantized-position grid: 1/1024 m (sub-millimeter). A
// power of two, so scaling and unscaling are exact float operations and the
// quantized path is lossless by construction — coordinates that do not sit on
// the grid exactly take the XOR path instead of being rounded.
const posScale = 1 << 10

var (
	// ErrUnknownChunkFormat is returned when a chunk names a format (or
	// format-altering flag) this build does not implement.
	ErrUnknownChunkFormat = errors.New("stindex: unknown chunk format")
	// ErrCorruptChunk is returned when a chunk's body is truncated or
	// internally inconsistent. Decoding fails closed: no partial records.
	ErrCorruptChunk = errors.New("stindex: corrupt chunk")
)

// sealedChunk is one compacted run of a spatial cell's time-ordered records.
// Its data is never re-encoded after seal: retention trims a chunk by
// advancing a live-suffix view over it. The first skip records are logically
// evicted; count, start and end describe only the live suffix. [start, end]
// is the inclusive UnixNano span of the live record times and bounds covers
// their positions (a superset once the view has shrunk); with count they let
// a query settle the chunk whole without decoding it (query.settle). targets
// is the chunk's target set as sealed, before any trim.
type sealedChunk struct {
	start, end int64
	bounds     geo.Rect
	count      int
	skip       int // leading records logically evicted
	next       int // offset in data of the time delta of record skip+1
	data       []byte
	targets    []targetCount // ascending by id; nil when no record has a target
}

// targetCount is one entry of a chunk's target set: a target and how many of
// the chunk's records it had when sealed.
type targetCount struct {
	id uint64
	n  int
}

// newSealedChunk encodes time-ordered records into one immutable chunk. The
// encoding grows in *scratch, which the caller reuses across chunks, and the
// chunk keeps an exact-size copy: a chunk lives until retention drops it, so
// the slack of a doubled buffer would stay resident with it.
func newSealedChunk(recs []hotRecord, scratch *[]byte) *sealedChunk {
	bounds := geo.EmptyRect()
	var targets []targetCount
	for i := range recs {
		bounds = bounds.UnionPoint(recs[i].Pos)
		if id := recs[i].TargetID; id != 0 {
			j, ok := slices.BinarySearchFunc(targets, id, cmpTargetID)
			if !ok {
				targets = slices.Insert(targets, j, targetCount{id: id})
			}
			targets[j].n++
		}
	}
	*scratch = appendChunk((*scratch)[:0], recs)
	data := make([]byte, len(*scratch))
	copy(data, *scratch)
	r, _ := timeColumn(data)
	r.varint() // first timestamp, already start
	return &sealedChunk{
		start:   recs[0].ns,
		end:     recs[len(recs)-1].ns,
		bounds:  bounds,
		count:   len(recs),
		next:    r.off,
		data:    data,
		targets: targets,
	}
}

func cmpTargetID(t targetCount, id uint64) int { return cmp.Compare(t.id, id) }

// targetCount returns how many of the chunk's records, as sealed, belong to
// target id.
func (c *sealedChunk) targetCount(id uint64) int {
	if i, ok := slices.BinarySearchFunc(c.targets, id, cmpTargetID); ok {
		return c.targets[i].n
	}
	return 0
}

// timeColumn returns a reader positioned at the first timestamp of a
// chunkFormatV1 chunk and the column's time unit.
func timeColumn(data []byte) (chunkReader, int64) {
	r := chunkReader{b: data, off: 1}
	r.uvarint()  // record count
	r.readByte() // flags
	unit := int64(r.uvarint())
	return r, unit
}

// overlaps reports whether the chunk's span intersects the UnixNano window
// [from, to].
func (c *sealedChunk) overlaps(from, to int64) bool {
	return from <= c.end && to >= c.start
}

// trimBefore shrinks the live view past every record with time before
// cutoff and returns how many records left it. It reads only time deltas,
// resuming where the previous trim stopped, so each record's time is read
// once over the chunk's life; nothing is decoded, allocated or re-encoded.
// Records are time-ordered, so the expired ones are a prefix. The caller
// guarantees end ≥ cutoff: at least one record stays live.
func (c *sealedChunk) trimBefore(cutoff int64) int {
	if c.start >= cutoff {
		return 0
	}
	r, unit := timeColumn(c.data)
	r.off = c.next
	n := 0
	for c.start < cutoff && n < c.count-1 {
		c.start += r.varint() * unit
		n++
	}
	if r.err != nil || c.start < cutoff {
		panic("stindex: sealed chunk trim past its end")
	}
	c.next = r.off
	c.skip += n
	c.count -= n
	return n
}

// appendLive decodes the chunk's live records onto dst. Sealed data is
// immutable after encode, so a failure here is a program bug, not an input
// condition.
func (c *sealedChunk) appendLive(dst []hotRecord) []hotRecord {
	dst, err := appendDecoded(dst, c.data, c.skip)
	if err != nil {
		panic("stindex: sealed chunk decode: " + err.Error())
	}
	return dst
}

// quantizable reports whether v is exactly representable as an integer count
// of 1/posScale meters. NaN and ±Inf are not; neither is anything large
// enough to lose integer precision.
func quantizable(v float64) bool {
	if v == 0 {
		return !math.Signbit(v) // -0 would decode as +0; keep its bits via XOR
	}
	f := v * posScale // exact: posScale is a power of two
	return f == math.Trunc(f) && math.Abs(f) < 1<<53
}

// gcd64 folds |d| into the running GCD g.
func gcd64(g uint64, d int64) uint64 {
	u := uint64(d)
	if d < 0 {
		u = uint64(-d) // MinInt64 wraps to its own magnitude, which is correct
	}
	for u != 0 {
		g, u = u, g%u
	}
	return g
}

// appendXor appends one XOR'd float-bits value: a significant-byte count,
// then that many big-endian bytes. Consecutive positions of a slow-moving
// target share sign, exponent, and high mantissa bits, so the XOR's leading
// bytes are zero and drop out.
func appendXor(dst []byte, x uint64) []byte {
	sig := (bits.Len64(x) + 7) / 8
	dst = append(dst, byte(sig))
	for i := sig - 1; i >= 0; i-- {
		dst = append(dst, byte(x>>(uint(i)*8)))
	}
	return dst
}

// appendChunk appends the chunkFormatV1 encoding of recs onto dst. Record
// order is preserved exactly; the store seals records (Time, ObsID)-sorted.
func appendChunk(dst []byte, recs []hotRecord) []byte {
	dst = append(dst, byte(chunkFormatV1))
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	if len(recs) == 0 {
		return dst
	}
	quant := true
	for i := range recs {
		if !quantizable(recs[i].Pos.X) || !quantizable(recs[i].Pos.Y) {
			quant = false
			break
		}
	}
	var flags byte
	if quant {
		flags |= chunkFlagQuantized
	}
	dst = append(dst, flags)

	// Time column: regular frame cadences make every delta a multiple of the
	// inter-frame gap, so dividing by the GCD collapses them to 1-2 bytes.
	g := uint64(0)
	for i := 1; i < len(recs); i++ {
		g = gcd64(g, recs[i].ns-recs[i-1].ns)
	}
	unit := int64(1)
	if g != 0 && g <= math.MaxInt64 {
		unit = int64(g)
	}
	dst = binary.AppendUvarint(dst, uint64(unit))
	dst = binary.AppendVarint(dst, recs[0].ns)
	for i := 1; i < len(recs); i++ {
		dst = binary.AppendVarint(dst, (recs[i].ns-recs[i-1].ns)/unit)
	}

	dst = binary.AppendUvarint(dst, recs[0].ObsID)
	for i := 1; i < len(recs); i++ {
		dst = binary.AppendVarint(dst, int64(recs[i].ObsID-recs[i-1].ObsID))
	}
	dst = binary.AppendUvarint(dst, recs[0].TargetID)
	for i := 1; i < len(recs); i++ {
		dst = binary.AppendVarint(dst, int64(recs[i].TargetID-recs[i-1].TargetID))
	}
	dst = binary.AppendUvarint(dst, uint64(recs[0].Camera))
	for i := 1; i < len(recs); i++ {
		dst = binary.AppendVarint(dst, int64(recs[i].Camera)-int64(recs[i-1].Camera))
	}

	if quant {
		dst = binary.AppendVarint(dst, int64(recs[0].Pos.X*posScale))
		for i := 1; i < len(recs); i++ {
			dst = binary.AppendVarint(dst, int64(recs[i].Pos.X*posScale)-int64(recs[i-1].Pos.X*posScale))
		}
		dst = binary.AppendVarint(dst, int64(recs[0].Pos.Y*posScale))
		for i := 1; i < len(recs); i++ {
			dst = binary.AppendVarint(dst, int64(recs[i].Pos.Y*posScale)-int64(recs[i-1].Pos.Y*posScale))
		}
		return dst
	}
	prev := math.Float64bits(recs[0].Pos.X)
	dst = binary.BigEndian.AppendUint64(dst, prev)
	for i := 1; i < len(recs); i++ {
		cur := math.Float64bits(recs[i].Pos.X)
		dst = appendXor(dst, cur^prev)
		prev = cur
	}
	prev = math.Float64bits(recs[0].Pos.Y)
	dst = binary.BigEndian.AppendUint64(dst, prev)
	for i := 1; i < len(recs); i++ {
		cur := math.Float64bits(recs[i].Pos.Y)
		dst = appendXor(dst, cur^prev)
		prev = cur
	}
	return dst
}

// chunkReader is a bounds-checked cursor over a chunk body. The first overrun
// or malformed varint latches err; every subsequent read is a no-op, so the
// decode loop stays branch-light and the caller checks err once.
type chunkReader struct {
	b   []byte
	off int
	err error
}

func (r *chunkReader) fail() {
	if r.err == nil {
		r.err = ErrCorruptChunk
	}
}

func (r *chunkReader) readByte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *chunkReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *chunkReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *chunkReader) full8() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *chunkReader) xor() uint64 {
	sig := int(r.readByte())
	if r.err != nil {
		return 0
	}
	if sig > 8 || r.off+sig > len(r.b) {
		r.fail()
		return 0
	}
	var v uint64
	for i := 0; i < sig; i++ {
		v = v<<8 | uint64(r.b[r.off+i])
	}
	r.off += sig
	return v
}

// decodeChunk parses a sealed chunk back into records. It fails closed: an
// unknown format tag or flag, a truncated body, an impossible record count,
// or trailing garbage all error without returning partial records.
func decodeChunk(data []byte) ([]hotRecord, error) {
	return appendDecoded(nil, data, 0)
}

// appendDecoded decodes a sealed chunk and appends its records from index
// skip on (the live suffix of a trimmed chunk) onto dst, growing dst once. It
// fails closed like decodeChunk: on error dst comes back at its original
// length, without partial records.
func appendDecoded(dst []hotRecord, data []byte, skip int) ([]hotRecord, error) {
	if len(data) == 0 {
		return dst, ErrCorruptChunk
	}
	if chunkFormat(data[0]) != chunkFormatV1 {
		return dst, fmt.Errorf("%w: 0x%02x", ErrUnknownChunkFormat, data[0])
	}
	r := &chunkReader{b: data, off: 1}
	n64 := r.uvarint()
	if r.err != nil {
		return dst, r.err
	}
	if n64 == 0 {
		if r.off != len(data) || skip != 0 {
			return dst, ErrCorruptChunk
		}
		return dst, nil
	}
	// Every record costs at least one time-column byte, so a count beyond
	// the chunk size is corruption — reject before allocating.
	if n64 > uint64(len(data)) || uint64(skip) >= n64 {
		return dst, ErrCorruptChunk
	}
	n := int(n64)
	flags := r.readByte()
	if flags&^chunkFlagQuantized != 0 {
		// Unknown flag bits change the layout; fail closed like an
		// unknown format rather than guessing.
		return dst, fmt.Errorf("%w: flags 0x%02x", ErrUnknownChunkFormat, flags)
	}
	base := len(dst)
	dst = slices.Grow(dst, n-skip)[:base+n-skip]
	// recs[i-skip] holds record i; records before skip are read, not kept.
	recs := dst[base:]

	unit := int64(r.uvarint())
	if unit <= 0 {
		r.fail()
	}
	ns := r.varint()
	for i := 0; i < n; i++ {
		if i > 0 {
			ns += r.varint() * unit
		}
		if i >= skip {
			recs[i-skip].ns = ns
		}
	}

	obs := r.uvarint()
	for i := 0; i < n; i++ {
		if i > 0 {
			obs += uint64(r.varint())
		}
		if i >= skip {
			recs[i-skip].ObsID = obs
		}
	}
	tgt := r.uvarint()
	for i := 0; i < n; i++ {
		if i > 0 {
			tgt += uint64(r.varint())
		}
		if i >= skip {
			recs[i-skip].TargetID = tgt
		}
	}
	cam := int64(r.uvarint())
	for i := 0; i < n; i++ {
		if i > 0 {
			cam += r.varint()
		}
		if i >= skip {
			recs[i-skip].Camera = uint32(cam)
		}
	}

	if flags&chunkFlagQuantized != 0 {
		ix := r.varint()
		for i := 0; i < n; i++ {
			if i > 0 {
				ix += r.varint()
			}
			if i >= skip {
				recs[i-skip].Pos.X = float64(ix) / posScale
			}
		}
		iy := r.varint()
		for i := 0; i < n; i++ {
			if i > 0 {
				iy += r.varint()
			}
			if i >= skip {
				recs[i-skip].Pos.Y = float64(iy) / posScale
			}
		}
	} else {
		xb := r.full8()
		for i := 0; i < n; i++ {
			if i > 0 {
				xb ^= r.xor()
			}
			if i >= skip {
				recs[i-skip].Pos.X = math.Float64frombits(xb)
			}
		}
		yb := r.full8()
		for i := 0; i < n; i++ {
			if i > 0 {
				yb ^= r.xor()
			}
			if i >= skip {
				recs[i-skip].Pos.Y = math.Float64frombits(yb)
			}
		}
	}
	if r.err != nil {
		return dst[:base], r.err
	}
	if r.off != len(data) {
		return dst[:base], ErrCorruptChunk
	}
	return dst, nil
}
