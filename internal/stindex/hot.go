package stindex

import (
	"math"
	"slices"
	"sort"
	"time"

	"stcam/internal/geo"
)

// This file is the hot tier: one spatial cell's recent records, held in
// fixed-width time buckets kept in time order. A bucket stores each record
// once, as a pointer-free hotRecord, visits it by pointer, and keeps its
// record count and a conservative bounding rect of the positions. A sealed
// chunk keeps the same two facts beside its record time span, so aggregate
// and wide reads settle a whole bucket or chunk from them before testing (or
// decoding) any record:
//
//   - the window misses its time span or the rect misses its bounds: no
//     record matches, so it is skipped;
//   - the window covers its time span and the rect contains its bounds:
//     every record matches, so it is taken whole;
//   - otherwise each record is tested.
//
// A bucket's rect only grows on add. Eviction may leave it a superset of
// what survives, and both proofs stay sound under a superset.

// hotRecord is a Record as the store keeps it: the time as UnixNano, so the
// record holds no pointer and the arrays holding it (hot buckets, target
// histories, decode scratch) are allocated noscan — the collector neither
// scans them nor write-barriers their appends. It converts to and from
// Record only at the Store API edge (hotOf, record); inside, every routine
// reads ns directly.
type hotRecord struct {
	ns       int64 // UnixNano
	ObsID    uint64
	TargetID uint64
	Camera   uint32
	Pos      geo.Point
}

// hotOf is rec in the store's form.
func hotOf(rec Record) hotRecord {
	return hotRecord{ns: rec.Time.UnixNano(), ObsID: rec.ObsID, TargetID: rec.TargetID, Camera: rec.Camera, Pos: rec.Pos}
}

// record is r in the API's form. The time is time.Unix(0, ns), so every
// answer carries one time representation whichever tier held the record.
func (r *hotRecord) record() Record {
	return Record{ObsID: r.ObsID, TargetID: r.TargetID, Camera: r.Camera, Pos: r.Pos, Time: time.Unix(0, r.ns)}
}

// toRecords converts hs, in order, into a new slice of Records; nil when hs
// is empty.
func toRecords(hs []hotRecord) []Record {
	if len(hs) == 0 {
		return nil
	}
	out := make([]Record, len(hs))
	for i := range hs {
		out[i] = hs[i].record()
	}
	return out
}

// hotCell is one spatial cell's hot tier. Not safe for concurrent use; the
// Store's lock guards it.
type hotCell struct {
	width   int64       // bucket width, ns
	buckets []hotBucket // ascending by idx, none empty
	n       int
}

// hotBucket holds the records of one time bucket in insertion order.
type hotBucket struct {
	idx    int64    // floor(UnixNano / width)
	bounds geo.Rect // covers every record's position
	recs   []hotRecord
}

func newHotCell(width time.Duration) *hotCell {
	return &hotCell{width: int64(width)}
}

// len returns the number of records in the cell.
func (c *hotCell) len() int { return c.n }

// search returns the index of the first bucket with idx ≥ b. Appends and
// full-span windows hit the fast paths.
func (c *hotCell) search(b int64) int {
	n := len(c.buckets)
	switch {
	case n == 0 || b > c.buckets[n-1].idx:
		return n
	case b <= c.buckets[0].idx:
		return 0
	}
	return sort.Search(n, func(i int) bool { return c.buckets[i].idx >= b })
}

func (c *hotCell) add(rec hotRecord) {
	b := floorDiv64(rec.ns, c.width)
	i := len(c.buckets) - 1
	if i < 0 || c.buckets[i].idx != b {
		i = c.search(b)
		if i == len(c.buckets) || c.buckets[i].idx != b {
			c.buckets = slices.Insert(c.buckets, i, hotBucket{idx: b, bounds: geo.EmptyRect()})
		}
	}
	hb := &c.buckets[i]
	hb.recs = append(hb.recs, rec)
	hb.bounds = hb.bounds.UnionPoint(rec.Pos)
	c.n++
}

// window returns the buckets that can hold records with UnixNano in
// [from, to], in time order. The slice aliases the cell.
func (c *hotCell) window(from, to int64) []hotBucket {
	if to < from {
		return nil
	}
	lo := c.search(floorDiv64(from, c.width))
	hi := c.search(floorDiv64(to, c.width) + 1)
	return c.buckets[lo:hi]
}

// settle decides bucket hb against q as a whole, if it can. A bucket's span
// is every instant it can hold.
func (c *hotCell) settle(q *query, hb *hotBucket) cover {
	start := hb.idx * c.width
	return q.settle(start, start+c.width-1, hb.bounds)
}

// evictBefore removes every record with UnixNano before cutoff and returns
// how many went; when drained is non-nil the removed records are appended to
// it. Buckets wholly before the cutoff leave without looking at their
// records; only the bucket holding the cutoff is filtered.
func (c *hotCell) evictBefore(cutoff int64, drained *[]hotRecord) int {
	cut := floorDiv64(cutoff, c.width)
	k := c.search(cut) // buckets [0, k) end before the cutoff
	removed := 0
	for i := 0; i < k; i++ {
		removed += len(c.buckets[i].recs)
		if drained != nil {
			*drained = append(*drained, c.buckets[i].recs...)
		}
	}
	if k < len(c.buckets) && c.buckets[k].idx == cut {
		hb := &c.buckets[k]
		kept := hb.recs[:0]
		for _, rec := range hb.recs {
			if rec.ns >= cutoff {
				kept = append(kept, rec)
				continue
			}
			removed++
			if drained != nil {
				*drained = append(*drained, rec)
			}
		}
		clear(hb.recs[len(kept):])
		hb.recs = kept
		if len(kept) == 0 {
			k++
		}
	}
	if k > 0 {
		n := copy(c.buckets, c.buckets[k:])
		clear(c.buckets[n:])
		c.buckets = c.buckets[:n]
	}
	c.n -= removed
	return removed
}

// span returns [start of the earliest bucket, end of the latest bucket), and
// false when the cell is empty.
func (c *hotCell) span() (start, end time.Time, ok bool) {
	if len(c.buckets) == 0 {
		return time.Time{}, time.Time{}, false
	}
	first, last := c.buckets[0].idx, c.buckets[len(c.buckets)-1].idx
	return time.Unix(0, first*c.width), time.Unix(0, (last+1)*c.width), true
}

// query is a read's filter on both tiers: rect r (boundary inclusive) and
// the inclusive UnixNano window [from, to].
type query struct {
	r        geo.Rect
	from, to int64
}

func newQuery(r geo.Rect, from, to time.Time) query {
	return query{r: r, from: unixNanos(from), to: unixNanos(to)}
}

func (q *query) match(rec *hotRecord) bool {
	return rec.ns >= q.from && rec.ns <= q.to && q.r.Contains(rec.Pos)
}

// settle decides a hot bucket or sealed chunk against q as a whole, from the
// inclusive UnixNano span [lo, hi] holding its record times and the rect
// bounding its positions.
func (q *query) settle(lo, hi int64, bounds geo.Rect) cover {
	if hi < q.from || lo > q.to {
		return coverNone
	}
	switch coverOf(q.r, bounds) {
	case coverNone:
		return coverNone
	case coverAll:
		if q.from <= lo && q.to >= hi {
			return coverAll
		}
	}
	return coverSome
}

// count returns how many of the cell's records match q.
func (c *hotCell) count(q query) int {
	n := 0
	bs := c.window(q.from, q.to)
	for i := range bs {
		hb := &bs[i]
		switch c.settle(&q, hb) {
		case coverAll:
			n += len(hb.recs)
		case coverSome:
			for j := range hb.recs {
				if q.match(&hb.recs[j]) {
					n++
				}
			}
		}
	}
	return n
}

// sizeHint bounds from above how many of the cell's records match q.
func (c *hotCell) sizeHint(q query) int {
	n := 0
	bs := c.window(q.from, q.to)
	for i := range bs {
		if coverOf(q.r, bs[i].bounds) != coverNone {
			n += len(bs[i].recs)
		}
	}
	return n
}

// appendTo appends the cell's records matching q onto out.
func (c *hotCell) appendTo(out []hotRecord, q query) []hotRecord {
	bs := c.window(q.from, q.to)
	for i := range bs {
		hb := &bs[i]
		switch c.settle(&q, hb) {
		case coverAll:
			out = append(out, hb.recs...)
		case coverSome:
			for j := range hb.recs {
				if q.match(&hb.recs[j]) {
					out = append(out, hb.recs[j])
				}
			}
		}
	}
	return out
}

// each calls fn for every record of the cell matching q.
func (c *hotCell) each(q query, fn func(*hotRecord)) {
	bs := c.window(q.from, q.to)
	for i := range bs {
		hb := &bs[i]
		if coverOf(q.r, hb.bounds) == coverNone {
			continue
		}
		for j := range hb.recs {
			if q.match(&hb.recs[j]) {
				fn(&hb.recs[j])
			}
		}
	}
}

// cover is what a bounding rect proves about the positions it covers
// relative to a query rect.
type cover uint8

const (
	coverNone cover = iota // no position lies in the query rect
	coverSome              // undecided: test each position
	coverAll               // every position lies in the query rect
)

// coverOf relates query rect r to bounds, a rect containing a set of
// positions. Both proofs are exact: ContainsRect and Intersects are boundary
// inclusive like Rect.Contains. A NaN coordinate sticks in a Union and makes
// every comparison false, so NaN bounds prove nothing.
func coverOf(r, bounds geo.Rect) cover {
	switch {
	case r.ContainsRect(bounds):
		return coverAll
	case r.Intersects(bounds),
		math.IsNaN(bounds.Min.X), math.IsNaN(bounds.Min.Y),
		math.IsNaN(bounds.Max.X), math.IsNaN(bounds.Max.Y):
		return coverSome
	}
	return coverNone
}

// gridKey is the square of side size holding p. It is the one keying
// function of store cells and heat cells, so two grids of equal size key
// every position identically. A coordinate past the int32 key range, ±Inf
// included, keys to the edge cell on its side instead of wrapping.
func gridKey(p geo.Point, size float64) cellKey {
	return cellKey{cx: gridIndex(p.X / size), cy: gridIndex(p.Y / size)}
}

func gridIndex(v float64) int32 {
	switch f := math.Floor(v); {
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(f)
	}
}

// ValidCellSize reports whether size can key a grid: finite and positive.
// NaN and ±Inf fail it; NaN would key every position to one arbitrary cell
// and +Inf would fold every position into cell (0, 0).
func ValidCellSize(size float64) bool {
	return size > 0 && size <= math.MaxFloat64
}

func floorDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// unixNanos is t.UnixNano saturated to the int64 range, so a query window
// bound beyond 1678–2262 (the zero Time, say) still orders correctly against
// record times.
func unixNanos(t time.Time) int64 {
	switch {
	case t.Before(minUnixNano):
		return math.MinInt64
	case t.After(maxUnixNano):
		return math.MaxInt64
	}
	return t.UnixNano()
}

var (
	minUnixNano = time.Unix(0, math.MinInt64)
	maxUnixNano = time.Unix(0, math.MaxInt64)
)

// recordKey is a record's sort key: sorting moves 24-byte keys and then
// each 48-byte record once.
type recordKey struct {
	ns  int64
	obs uint64
	idx int
}

func cmpRecordKey(a, b recordKey) int {
	switch {
	case a.ns != b.ns:
		if a.ns < b.ns {
			return -1
		}
		return 1
	case a.obs != b.obs:
		if a.obs < b.obs {
			return -1
		}
		return 1
	}
	return a.idx - b.idx
}

// recordLess reports whether a sorts before b in (Time, ObsID) order, the
// order sortRecords produces.
func recordLess(a, b *hotRecord) bool {
	return a.ns < b.ns || (a.ns == b.ns && a.ObsID < b.ObsID)
}

// sortKeys returns the sort keys of recs in (Time, ObsID) order, stably,
// and whether recs were already in that order (then the keys are left in
// input order, which is the same). keys is scratch: its capacity is reused,
// and the buffer is returned, grown if it had to be; nil allocates one.
func sortKeys(recs []hotRecord, keys []recordKey) ([]recordKey, bool) {
	keys = slices.Grow(keys[:0], len(recs))[:len(recs)]
	ordered := true
	for i := range recs {
		keys[i] = recordKey{ns: recs[i].ns, obs: recs[i].ObsID, idx: i}
		if ordered && i > 0 && cmpRecordKey(keys[i-1], keys[i]) > 0 {
			ordered = false
		}
	}
	if !ordered {
		slices.SortFunc(keys, cmpRecordKey)
	}
	return keys, ordered
}

// sortRecords orders recs by (Time, ObsID) in place, stably. It sorts the
// records' keys and then gathers the records into key order along the
// permutation's cycles, so each record moves once. An already ordered input
// is left as is. keys is sortKeys' scratch, returned for the next call.
func sortRecords(recs []hotRecord, keys []recordKey) []recordKey {
	keys, ordered := sortKeys(recs, keys)
	if ordered {
		return keys
	}
	// Position i takes the record at keys[i].idx. Follow each cycle of that
	// permutation from its first position, marking positions done by
	// pointing their key at themselves.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		first := recs[i]
		j := i
		for {
			k := keys[j].idx
			keys[j].idx = j
			if k == i {
				recs[j] = first
				break
			}
			recs[j] = recs[k]
			j = k
		}
	}
	return keys
}

// sortedRecords returns recs as Records in (Time, ObsID) order, stably; nil
// when recs is empty. Each record is converted straight into its sorted
// place, so an answer moves every record once and recs is left as is.
func sortedRecords(recs []hotRecord) []Record {
	if len(recs) == 0 {
		return nil
	}
	keys, _ := sortKeys(recs, nil)
	out := make([]Record, len(recs))
	for i, k := range keys {
		out[i] = recs[k.idx].record()
	}
	return out
}
