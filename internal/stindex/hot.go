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
// once, visits it by pointer, and keeps its record count and a conservative
// bounding rect of the positions. A sealed chunk keeps the same two facts
// beside its record time span, so aggregate and wide reads settle a whole
// bucket or chunk from them before testing (or decoding) any record:
//
//   - the window misses its time span or the rect misses its bounds: no
//     record matches, so it is skipped;
//   - the window covers its time span and the rect contains its bounds:
//     every record matches, so it is taken whole;
//   - otherwise each record is tested.
//
// A bucket's rect only grows on add. Eviction may leave it a superset of
// what survives, and both proofs stay sound under a superset.

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
	recs   []Record
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

func (c *hotCell) add(rec Record) {
	b := floorDiv64(rec.Time.UnixNano(), c.width)
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
func (c *hotCell) evictBefore(cutoff int64, drained *[]Record) int {
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
			if rec.Time.UnixNano() >= cutoff {
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

func (q *query) match(rec *Record) bool {
	ns := rec.Time.UnixNano()
	return ns >= q.from && ns <= q.to && q.r.Contains(rec.Pos)
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
func (c *hotCell) appendTo(out []Record, q query) []Record {
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
func (c *hotCell) each(q query, fn func(*Record)) {
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

// recordKey is a record's sort key: pointer-free, so sorting moves 24 bytes
// without write barriers instead of a 64-byte record holding a pointer.
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
func recordLess(a, b *Record) bool {
	an, bn := a.Time.UnixNano(), b.Time.UnixNano()
	return an < bn || (an == bn && a.ObsID < b.ObsID)
}

// sortRecords orders recs by (Time, ObsID) in place, stably. It sorts the
// records' keys and then gathers the records into key order along the
// permutation's cycles, so each record moves once. An already ordered input
// is left as is. keys is scratch for the sort keys: its capacity is reused,
// and the buffer is returned, grown if it had to be, for the next call; nil
// allocates one.
func sortRecords(recs []Record, keys []recordKey) []recordKey {
	keys = slices.Grow(keys[:0], len(recs))[:len(recs)]
	ordered := true
	for i := range recs {
		keys[i] = recordKey{ns: recs[i].Time.UnixNano(), obs: recs[i].ObsID, idx: i}
		if ordered && i > 0 && cmpRecordKey(keys[i-1], keys[i]) > 0 {
			ordered = false
		}
	}
	if ordered {
		return keys
	}
	slices.SortFunc(keys, cmpRecordKey)
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
