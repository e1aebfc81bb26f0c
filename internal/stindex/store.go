// Package stindex implements the per-worker spatio-temporal observation
// store: a uniform spatial grid whose cells hold time-bucketed observation
// records, plus a per-target history index. It answers the snapshot query repertoire of the framework —
// spatio-temporal range, k-nearest within a time window, target history and
// trajectory reconstruction — and supports retention eviction.
//
// The store is tiered: recent records stay in mutable bucket cells (the hot
// tier, hot.go), and records aging past the seal horizon are compacted into
// immutable delta-compressed chunks that carry their record count, time span
// and bounding rect (chunk.go). Hot buckets and sealed chunks settle against
// a query by one proof (query.settle), so aggregates count whole chunks
// without decoding them. Queries consult both tiers and return exactly what a
// store holding every record hot would; the differential suite in
// tier_differential_test.go holds that equivalence across seal boundaries,
// eviction and out-of-order ingest, against a store whose horizon is longer
// than its data.
package stindex

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"stcam/internal/geo"
)

// Record is one indexed observation. TargetID is the identity assigned by
// the tracking/association layer (0 when unassociated).
type Record struct {
	ObsID    uint64
	TargetID uint64
	Camera   uint32
	Pos      geo.Point
	Time     time.Time
}

// Neighbor is a kNN result record with its squared distance to the query.
type Neighbor struct {
	Record
	Dist2 float64
}

// Config sets the store geometry.
type Config struct {
	CellSize    float64       // spatial grid cell, meters (default 50)
	BucketWidth time.Duration // hot-tier temporal bucket width (default 10s)
	Retention   time.Duration // 0 → keep everything until EvictBefore is called

	// SealHorizon is the hot tier's span: records older than latest −
	// SealHorizon are compacted into immutable compressed chunks (default
	// 2 min). A horizon longer than the data keeps every record hot.
	SealHorizon time.Duration
}

func (c *Config) fill() {
	if c.CellSize <= 0 {
		c.CellSize = 50
	}
	if c.BucketWidth <= 0 {
		c.BucketWidth = 10 * time.Second
	}
	if c.SealHorizon <= 0 {
		c.SealHorizon = 2 * time.Minute
	}
}

// rollupBuckets is the seal granule in hot buckets: the seal frontier
// advances in steps of rollupBuckets × BucketWidth, and cell chunks never
// span one such step.
const rollupBuckets = 16

// chunkTarget caps records per sealed chunk.
const chunkTarget = 512

// sealCheckEvery is the straggler cadence: a late stream (timestamps behind
// the seal frontier) is compacted every sealCheckEvery such inserts, or it
// would pile up in the hot tier until the frontier next advances.
const sealCheckEvery = 1024

// Store is the spatio-temporal index. Safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.RWMutex
	cells    map[cellKey]*hotCell
	byTarget map[uint64][]hotRecord // time-ordered per target (hot tier)
	n        int                    // cell-side records across both tiers
	latest   int64                  // UnixNano of the newest record; noTime while empty
	// hotFloor is the hot tier's retention watermark: no hot record is
	// older than this UnixNano. Late inserts lower it; a seal raises it to
	// the seal frontier and a hot sweep to its cutoff, so retention sweeps
	// the hot tier only when a hot record can have expired.
	hotFloor int64

	// Sealed tier. sealed holds each cell's chunks in
	// seal order, the one encoded copy of every sealed record; targetSealed
	// lists, per target, the same chunks that hold one of its records, in
	// seal order; expiry holds every chunk, bucketed for retention.
	// sealFrontier is the exclusive UnixNano upper bound of sealed time
	// (noTime before the first seal): after a seal sweep no hot record is
	// older than it (late arrivals may dip below until the next sweep
	// compacts them).
	sealed        map[cellKey][]*sealedChunk
	targetSealed  map[uint64][]*sealedChunk
	expiry        []expiryBucket
	sealFrontier  int64
	lateSinceSeal int

	gen uint64 // bumped on every mutation (insert/seal/evict)

	// rollupWidth is the seal granule (rollupBuckets × BucketWidth) and
	// chunkTarget the per-chunk record cap; tests shrink the cap so small
	// workloads span many chunks.
	rollupWidth time.Duration
	chunkTarget int

	// Seal scratch, reused by every seal under mu so that a seal allocates
	// only the chunks it keeps: the records drained from one cell, their
	// sort keys, and the encoding of one chunk, which the chunk copies out
	// at its exact size. Each holds at most the largest single-cell seal.
	sealRecs []hotRecord
	sealKeys []recordKey
	sealBuf  []byte

	sweepVisits int // chunks, hot cells and hot histories retention has touched
	expiryReads int // expiry entries retention has read

	queryDecodes atomic.Uint64 // chunks decoded to answer queries
	rollupHits   atomic.Uint64 // chunks counted whole, without decoding
}

// targetRefBytes is what one (chunk, target) entry of the per-target index
// costs: the chunk's set entry and the target list's pointer to the chunk.
const targetRefBytes = int64(unsafe.Sizeof(targetCount{}) + unsafe.Sizeof((*sealedChunk)(nil)))

type cellKey struct{ cx, cy int32 }

// NewStore returns an empty store with the given configuration.
func NewStore(cfg Config) *Store {
	cfg.fill()
	return &Store{
		cfg:          cfg,
		rollupWidth:  rollupBuckets * cfg.BucketWidth,
		chunkTarget:  chunkTarget,
		cells:        make(map[cellKey]*hotCell),
		byTarget:     make(map[uint64][]hotRecord),
		latest:       noTime,
		hotFloor:     math.MaxInt64,
		sealFrontier: noTime,
		sealed:       make(map[cellKey][]*sealedChunk),
		targetSealed: make(map[uint64][]*sealedChunk),
	}
}

// Len returns the number of stored records (hot + sealed).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Gen returns a counter that changes on every mutation (insert, seal,
// eviction). Callers caching derived views — the worker's heartbeat summary —
// key on (Gen, ...) so that any mutation invalidates, including an eviction
// followed by inserts that happen to restore the same Len and Latest.
func (s *Store) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// TierStats reports sealed-tier sizes and query-path counters. Every sealed record is encoded once, in its cell's
// chunk; the per-target index points at chunks. Record counts are exact; byte
// counts keep the trimmed prefix of a chunk straddling the retention cutoff.
type TierStats struct {
	SealedChunks  int    // chunks resident
	SealedRecords int    // live records held in chunks
	SealedBytes   int64  // encoded bytes of chunks
	IndexBytes    int64  // per-target index: targetRefBytes per (chunk, target) entry
	QueryDecodes  uint64 // cumulative chunks decoded to answer queries
	RollupHits    uint64 // cumulative sealed chunks answered without decoding
}

// TierStats returns a snapshot of the sealed tier, read off every resident
// chunk.
func (s *Store) TierStats() TierStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts := TierStats{QueryDecodes: s.queryDecodes.Load(), RollupHits: s.rollupHits.Load()}
	for _, b := range s.expiry {
		ts.SealedChunks += len(b.entries)
		for _, e := range b.entries {
			ts.SealedRecords += e.c.count
			ts.SealedBytes += int64(len(e.c.data))
			ts.IndexBytes += int64(len(e.c.targets)) * targetRefBytes
		}
	}
	return ts
}

func (s *Store) keyOf(p geo.Point) cellKey { return gridKey(p, s.cfg.CellSize) }

// Insert adds records, in order. When Retention is configured, a record
// already older than Latest − Retention — the cutoff as of the records before
// it — is dropped on arrival, as if evicted at once, and the call ends by
// evicting what the advanced cutoff has expired. Records aging past the seal
// horizon are compacted into the sealed tier on the way, at the record where
// inserting one at a time would compact them, so a call leaves the store
// exactly as inserting its records one call each would.
// All maintenance runs inside the call's one critical section: readers can
// never observe already-expired records, and two racing calls cannot both
// run an eviction.
func (s *Store) Insert(recs ...Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff, frontier := s.retentionCutoff(), satSub(s.latest, s.cfg.SealHorizon)
	added := false
	for i := range recs {
		h := hotOf(recs[i])
		if h.ns < cutoff {
			continue
		}
		s.addHot(h)
		added = true
		if h.ns < s.sealFrontier {
			s.lateSinceSeal++
		}
		if h.ns > s.latest {
			s.latest = h.ns
			frontier = satSub(s.latest, s.cfg.SealHorizon)
		}
		// Seal once per rollupWidth of frontier progress, or when enough
		// stragglers landed behind the frontier to be worth compacting. The
		// seal sees the hot tier as evicted to the cutoff before this record.
		if s.sealFrontier == noTime || frontier-s.sealFrontier >= int64(s.rollupWidth) || s.lateSinceSeal >= sealCheckEvery {
			if s.cfg.Retention > 0 {
				s.evictLocked(cutoff)
			}
			s.sealLocked(frontier)
		}
		cutoff = s.retentionCutoff()
	}
	if added {
		s.gen++
	}
	if s.cfg.Retention > 0 {
		s.evictLocked(cutoff)
	}
}

// addHot adds one record to the hot tier: its cell and, when it has a
// target, the target's history. Caller holds the write lock.
func (s *Store) addHot(h hotRecord) {
	key := s.keyOf(h.Pos)
	cell, ok := s.cells[key]
	if !ok {
		cell = newHotCell(s.cfg.BucketWidth)
		s.cells[key] = cell
	}
	cell.add(h)
	s.n++
	s.hotFloor = min(s.hotFloor, h.ns)
	if h.TargetID != 0 {
		// Insert keeping (Time, ObsID) order, after equal keys; appends are
		// the common case.
		hist := s.byTarget[h.TargetID]
		i := len(hist)
		if i > 0 && recordLess(&h, &hist[i-1]) {
			i = sort.Search(i, func(j int) bool { return recordLess(&h, &hist[j]) })
		}
		s.byTarget[h.TargetID] = slices.Insert(hist, i, h)
	}
}

// noTime is the UnixNano the store holds for "no time yet": Latest of an
// empty store, and the seal frontier before the first seal.
const noTime = math.MinInt64

// retentionCutoff is the UnixNano before which records have expired:
// Latest − Retention, and noTime (nothing expires) without retention or
// before the first record.
func (s *Store) retentionCutoff() int64 {
	if s.cfg.Retention <= 0 {
		return noTime
	}
	return satSub(s.latest, s.cfg.Retention)
}

// satSub is the UnixNano t − d, saturated at noTime.
func satSub(t int64, d time.Duration) int64 {
	if t < noTime+int64(d) {
		return noTime
	}
	return t - int64(d)
}

// Seal compacts every record older than latest − SealHorizon into the sealed
// tier and returns how many records moved. Inserts do this opportunistically;
// Seal forces it (tests, benchmarks, explicit compaction).
func (s *Store) Seal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == noTime {
		return 0
	}
	return s.sealLocked(satSub(s.latest, s.cfg.SealHorizon))
}

// sealLocked moves every cell record strictly before the frontier into
// sealed chunks (grouped by rollupWidth bucket, split at chunkTarget) and
// drops the sealed prefixes of the hot target histories. Record counts do not
// change — records move between tiers. Caller holds the write lock.
func (s *Store) sealLocked(frontier int64) int {
	if frontier > s.sealFrontier {
		s.sealFrontier = frontier
	} else {
		// Straggler sweep: re-seal up to the existing frontier.
		frontier = s.sealFrontier
	}
	s.lateSinceSeal = 0
	if frontier == noTime {
		return 0
	}
	s.gen++
	s.hotFloor = max(s.hotFloor, frontier)
	sealedCount := 0
	for key, cell := range s.cells {
		if start, _, ok := cell.span(); !ok || start.UnixNano() >= frontier {
			continue
		}
		recs := s.sealRecs[:0]
		cell.evictBefore(frontier, &recs)
		s.sealRecs = recs
		if cell.len() == 0 {
			delete(s.cells, key)
		}
		if len(recs) == 0 {
			continue
		}
		// Cell chunks never span a rollupWidth bucket.
		s.sealKeys = sortRecords(recs, s.sealKeys)
		width := int64(s.rollupWidth)
		for i := 0; i < len(recs); {
			b := floorDiv64(recs[i].ns, width)
			j := i + 1
			for j < len(recs) && floorDiv64(recs[j].ns, width) == b {
				j++
			}
			for k := i; k < j; k += s.chunkTarget {
				s.addChunk(key, newSealedChunk(recs[k:min(k+s.chunkTarget, j)], &s.sealBuf))
			}
			i = j
		}
		sealedCount += len(recs)
	}
	for id, hist := range s.byTarget {
		if lo := searchTime(hist, frontier); lo > 0 {
			s.trimHistory(id, hist, lo)
		}
	}
	return sealedCount
}

// addChunk lists a new chunk under cell key and under every target it holds,
// and in the expiry bucket of its rollupWidth step.
func (s *Store) addChunk(key cellKey, c *sealedChunk) {
	s.sealed[key] = append(s.sealed[key], c)
	for _, t := range c.targets {
		s.targetSealed[t.id] = append(s.targetSealed[t.id], c)
	}
	idx := floorDiv64(c.start, int64(s.rollupWidth))
	i := len(s.expiry) - 1
	if i < 0 || s.expiry[i].idx != idx {
		i = sort.Search(len(s.expiry), func(j int) bool { return s.expiry[j].idx >= idx })
		if i == len(s.expiry) || s.expiry[i].idx != idx {
			s.expiry = slices.Insert(s.expiry, i, expiryBucket{idx: idx, first: c.start})
		}
	}
	b := &s.expiry[i]
	b.entries = append(b.entries, expiry{start: c.start, c: c, key: key})
	b.first = min(b.first, c.start)
}

// searchTime returns the index of the first record of the time-ordered hist
// at or after UnixNano t.
func searchTime(hist []hotRecord, t int64) int {
	return sort.Search(len(hist), func(i int) bool { return hist[i].ns >= t })
}

// trimHistory drops the first lo records of target id's hot history hist by
// re-slicing. The live part is copied down only once it fills less than half
// of the backing array left to it, so compaction is amortised over trims.
func (s *Store) trimHistory(id uint64, hist []hotRecord, lo int) {
	switch hist = hist[lo:]; {
	case len(hist) == 0:
		delete(s.byTarget, id)
	case len(hist) < cap(hist)/2:
		s.byTarget[id] = slices.Clone(hist)
	default:
		s.byTarget[id] = hist
	}
}

// decodeForQuery appends a sealed chunk's live records onto dst on the query
// path, counting the decode.
func (s *Store) decodeForQuery(c *sealedChunk, dst []hotRecord) []hotRecord {
	s.queryDecodes.Add(1)
	return c.appendLive(dst)
}

// decodeScratch decodes a sealed chunk into *scratch, a buffer the caller
// owns for the length of one query, and returns the records. Every chunk a
// query decodes reuses the one buffer.
func (s *Store) decodeScratch(c *sealedChunk, scratch *[]hotRecord) []hotRecord {
	*scratch = s.decodeForQuery(c, (*scratch)[:0])
	return *scratch
}

// appendSealed appends cell key's sealed records matching q onto out. A chunk
// q covers whole is decoded straight into out; a partly covered one is
// decoded there too and filtered in place. Caller holds (at least) the read
// lock.
func (s *Store) appendSealed(out []hotRecord, key cellKey, q query) []hotRecord {
	for _, c := range s.sealed[key] {
		cv := q.settle(c.start, c.end, c.bounds)
		if cv == coverNone {
			continue
		}
		base := len(out)
		out = s.decodeForQuery(c, out)
		if cv == coverSome {
			out = filterFrom(out, base, q.match)
		}
	}
	return out
}

// filterFrom keeps the records of recs[from:] that match, in order, and
// returns the shortened slice.
func filterFrom(recs []hotRecord, from int, match func(*hotRecord) bool) []hotRecord {
	k := from
	for i := from; i < len(recs); i++ {
		if match(&recs[i]) {
			recs[k] = recs[i]
			k++
		}
	}
	return recs[:k]
}

// countCellLocked returns how many of cell key's records, hot and sealed,
// match q. Hot buckets and sealed chunks q settles whole add their count
// without visiting records or decoding; the rest decode into scratch. Caller
// holds (at least) the read lock.
func (s *Store) countCellLocked(key cellKey, q query, scratch *[]hotRecord) int {
	n := 0
	if cell, ok := s.cells[key]; ok {
		n = cell.count(q)
	}
	var hits uint64
	for _, c := range s.sealed[key] {
		switch q.settle(c.start, c.end, c.bounds) {
		case coverAll:
			n += c.count
			hits++
		case coverSome:
			recs := s.decodeScratch(c, scratch)
			for i := range recs {
				if q.match(&recs[i]) {
					n++
				}
			}
		}
	}
	if hits > 0 {
		s.rollupHits.Add(hits)
	}
	return n
}

// RangeQuery returns the records inside r with time in [from, to], ordered by
// time then ObsID. Hot buckets the query covers whole are appended in bulk
// and sealed chunks decode straight into a pointer-free buffer, allocated
// once, sized from bucket and chunk counts; the sort gathers it into the
// answer.
func (s *Store) RangeQuery(r geo.Rect, from, to time.Time) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r.IsEmpty() || to.Before(from) || s.n == 0 {
		return nil
	}
	q := newQuery(r, from, to)
	size := 0
	s.forEachCellKeyIn(r, func(key cellKey) {
		if cell, ok := s.cells[key]; ok {
			size += cell.sizeHint(q)
		}
		for _, c := range s.sealed[key] {
			if q.settle(c.start, c.end, c.bounds) != coverNone {
				size += c.count
			}
		}
	})
	if size == 0 {
		return nil
	}
	out := make([]hotRecord, 0, size)
	s.forEachCellKeyIn(r, func(key cellKey) {
		if cell, ok := s.cells[key]; ok {
			out = cell.appendTo(out, q)
		}
		out = s.appendSealed(out, key, q)
	})
	return sortedRecords(out)
}

// Count returns the number of records inside r with time in [from, to]
// without materializing them. Hot buckets and sealed chunks the window and r
// cover whole add their counts without visiting records or decoding.
func (s *Store) Count(r geo.Rect, from, to time.Time) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r.IsEmpty() || to.Before(from) || s.n == 0 {
		return 0
	}
	q := newQuery(r, from, to)
	count := 0
	var scratch []hotRecord
	s.forEachCellKeyIn(r, func(key cellKey) {
		count += s.countCellLocked(key, q, &scratch)
	})
	return count
}

// forEachCellKeyIn visits every cell key overlapping r that has data in
// either tier. A rect reaching past the key range keys its edges to the edge
// cells (gridKey saturates). Caller holds the read lock.
func (s *Store) forEachCellKeyIn(r geo.Rect, fn func(cellKey)) {
	lo, hi := s.keyOf(r.Min), s.keyOf(r.Max)
	nx, ny := int64(hi.cx)-int64(lo.cx)+1, int64(hi.cy)-int64(lo.cy)+1
	if float64(nx)*float64(ny) > float64(len(s.cells)+len(s.sealed))*2 {
		s.eachCellKey(func(key cellKey) {
			if s.cellRect(key).Intersects(r) {
				fn(key)
			}
		})
		return
	}
	for cx := int64(lo.cx); cx <= int64(hi.cx); cx++ {
		for cy := int64(lo.cy); cy <= int64(hi.cy); cy++ {
			key := cellKey{int32(cx), int32(cy)}
			_, hot := s.cells[key]
			if !hot {
				if _, ok := s.sealed[key]; !ok {
					continue
				}
			}
			fn(key)
		}
	}
}

// eachCellKey calls fn once for every cell key with data in either tier.
// Caller holds the read lock.
func (s *Store) eachCellKey(fn func(cellKey)) {
	for key := range s.cells {
		fn(key)
	}
	for key := range s.sealed {
		if _, hot := s.cells[key]; !hot {
			fn(key)
		}
	}
}

// cellRect is the extent of cell k. The edge cells of the key range reach to
// infinity, since gridKey saturates every coordinate beyond them into them.
func (s *Store) cellRect(k cellKey) geo.Rect {
	x0, x1 := cellSpan(k.cx, s.cfg.CellSize)
	y0, y1 := cellSpan(k.cy, s.cfg.CellSize)
	return geo.Rect{Min: geo.Pt(x0, y0), Max: geo.Pt(x1, y1)}
}

func cellSpan(i int32, size float64) (lo, hi float64) {
	lo, hi = float64(i)*size, (float64(i)+1)*size
	if i == math.MinInt32 {
		lo = math.Inf(-1)
	}
	if i == math.MaxInt32 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// KNN returns the k records nearest to q among those with time in [from, to],
// ascending by distance with ObsID tie-break. It expands rings of grid cells
// outward from q, pruning once the k-th distance beats the next ring.
func (s *Store) KNN(q geo.Point, from, to time.Time, k int) []Neighbor {
	return s.KNNBounded(q, from, to, k, 0, nil)
}

// KNNBounded is KNN with a candidate predicate and a pushed-down radius
// bound. Records for which keep returns false are skipped (nil keeps
// everything); the worker uses it to answer from primary-camera data only
// when replication is on. When maxDist2 > 0, candidates with squared
// distance strictly greater than maxDist2 are discarded (the bound is
// inclusive, preserving ties at exactly maxDist2) and ring expansion stops as
// soon as the next ring cannot reach the bound.
// The coordinator's two-phase kNN uses this to keep later-phase probes from
// materializing candidates that cannot displace the current global top k.
func (s *Store) KNNBounded(q geo.Point, from, to time.Time, k int, maxDist2 float64, keep func(Record) bool) []Neighbor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if k <= 0 || s.n == 0 || to.Before(from) {
		return nil
	}
	center := s.keyOf(q)
	best := make(neighborHeap, 0, min(k, 64)) // room for a usual k without regrowing
	// consider offers one in-window record. Distance and rank are settled
	// from its stored form; only a record that would enter best converts to
	// a Record, for keep and the answer.
	consider := func(rec *hotRecord) {
		n := Neighbor{Record: Record{ObsID: rec.ObsID}, Dist2: q.Dist2(rec.Pos)}
		if maxDist2 > 0 && n.Dist2 > maxDist2 || len(best) == k && !neighborLess(n, best[0]) {
			return
		}
		if n.Record = rec.record(); keep != nil && !keep(n.Record) {
			return
		}
		if len(best) < k {
			best = append(best, n) // heap.Push without boxing n
			heap.Fix(&best, len(best)-1)
		} else {
			best[0] = n
			heap.Fix(&best, 0)
		}
	}
	fromNs, toNs := unixNanos(from), unixNanos(to)
	var scratch []hotRecord
	scan := func(key cellKey) {
		if cell, ok := s.cells[key]; ok {
			bs := cell.window(fromNs, toNs)
			for i := range bs {
				for j := range bs[i].recs {
					if rec := &bs[i].recs[j]; rec.ns >= fromNs && rec.ns <= toNs {
						consider(rec)
					}
				}
			}
		}
		for _, c := range s.sealed[key] {
			if !c.overlaps(fromNs, toNs) {
				continue
			}
			recs := s.decodeScratch(c, &scratch)
			for i := range recs {
				if rec := &recs[i]; rec.ns >= fromNs && rec.ns <= toNs {
					consider(rec)
				}
			}
		}
	}
	// stop reports whether no record of ring or beyond can enter best: its
	// cells lie at least (ring-1)·CellSize from q.
	stop := func(ring int64) bool {
		minDist := float64(ring-1) * s.cfg.CellSize
		if minDist <= 0 {
			return false
		}
		return len(best) == k && minDist*minDist > best[0].Dist2 || maxDist2 > 0 && minDist*minDist > maxDist2
	}
	// Walk whole rings outward while they cost less, in all, than one pass
	// over the occupied keys; then visit only those, in walk order.
	budget := int64(len(s.cells) + len(s.sealed))
	for ring := int64(0); !stop(ring); ring++ {
		if cost := max(8*ring, 1); cost <= budget {
			budget -= cost
			walkRing(center, ring, scan)
			continue
		}
		var rest []ringKey
		s.eachCellKey(func(key cellKey) {
			if rk := ringPos(center, key); rk.ring >= ring {
				rest = append(rest, rk)
			}
		})
		slices.SortFunc(rest, func(a, b ringKey) int {
			return cmp.Or(cmp.Compare(a.ring, b.ring), cmp.Compare(a.order, b.order))
		})
		for i, rk := range rest {
			if (i == 0 || rk.ring != rest[i-1].ring) && stop(rk.ring) {
				break
			}
			scan(rk.key)
		}
		break
	}
	sort.Slice(best, func(i, j int) bool { return neighborLess(best[i], best[j]) })
	return best
}

func neighborLess(a, b Neighbor) bool {
	return a.Dist2 < b.Dist2 || a.Dist2 == b.Dist2 && a.ObsID < b.ObsID
}

// neighborHeap is a max-heap (container/heap) of kNN candidates by
// (Dist2, ObsID). Its users grow it by append and heap.Fix and never pop.
type neighborHeap []Neighbor

func (h neighborHeap) Len() int           { return len(h) }
func (h neighborHeap) Less(i, j int) bool { return neighborLess(h[j], h[i]) }
func (h neighborHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() any          { return nil }

// walkRing calls fn for every key of ring around center within the int32
// range: bottom and top rows interleaved, then left and right columns.
func walkRing(center cellKey, ring int64, fn func(cellKey)) {
	cx, cy := int64(center.cx), int64(center.cy)
	visit := func(x, y int64) {
		if x >= math.MinInt32 && x <= math.MaxInt32 && y >= math.MinInt32 && y <= math.MaxInt32 {
			fn(cellKey{int32(x), int32(y)})
		}
	}
	if ring == 0 {
		visit(cx, cy)
		return
	}
	for x := cx - ring; x <= cx+ring; x++ {
		visit(x, cy-ring)
		visit(x, cy+ring)
	}
	for y := cy - ring + 1; y <= cy+ring-1; y++ {
		visit(cx-ring, y)
		visit(cx+ring, y)
	}
}

// ringKey is a cell key with the ring around a center holding it (their
// Chebyshev distance in cells) and its position in walkRing's order.
type ringKey struct {
	ring, order int64
	key         cellKey
}

func ringPos(center, key cellKey) ringKey {
	dx, dy := int64(key.cx)-int64(center.cx), int64(key.cy)-int64(center.cy)
	rk := ringKey{ring: max(dx, -dx, dy, -dy), key: key}
	switch r := rk.ring; {
	case dy == -r || dy == r:
		rk.order = 2*(dx+r) + min(dy+r, 1)
	default:
		rk.order = 2*(2*r+1) + 2*(dy+r-1) + min(dx+r, 1)
	}
	return rk
}

// HeatCell accumulates the observation count of one heatmap cell.
type HeatCell struct {
	CX, CY int32
	Count  int64
}

// Heatmap aggregates observation density over r and [from, to] into square
// cells of the given size, applying the optional keep predicate. Only
// non-empty cells are returned, unordered; a cellSize that is not finite and
// positive (ValidCellSize) returns nil. With keep == nil and cellSize equal
// to CellSize, every record of store cell k lands in heat cell k (one keying
// function, gridKey), so each cell's matches are counted as in Count: whole
// hot buckets and sealed chunks by their counts.
func (s *Store) Heatmap(r geo.Rect, from, to time.Time, cellSize float64, keep func(Record) bool) []HeatCell {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r.IsEmpty() || to.Before(from) || s.n == 0 || !ValidCellSize(cellSize) {
		return nil
	}
	ownKey := keep == nil && cellSize == s.cfg.CellSize
	q := newQuery(r, from, to)
	acc := make(map[cellKey]int64)
	var scratch []hotRecord
	tally := func(rec *hotRecord) {
		if keep == nil || keep(rec.record()) {
			acc[gridKey(rec.Pos, cellSize)]++
		}
	}
	s.forEachCellKeyIn(r, func(key cellKey) {
		if ownKey {
			if n := s.countCellLocked(key, q, &scratch); n > 0 {
				acc[key] = int64(n)
			}
			return
		}
		if cell, ok := s.cells[key]; ok {
			cell.each(q, tally)
		}
		scratch = s.appendSealed(scratch[:0], key, q)
		for i := range scratch {
			tally(&scratch[i])
		}
	})
	out := make([]HeatCell, 0, len(acc))
	for key, n := range acc {
		out = append(out, HeatCell{CX: key.cx, CY: key.cy, Count: n})
	}
	return out
}

// TargetHistory returns the records associated with a target in [from, to],
// in (Time, ObsID) order. Sealed ones are decoded from the cell chunks listing
// the target, and filtered from the other targets' records there.
func (s *Store) TargetHistory(id uint64, from, to time.Time) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if to.Before(from) {
		return nil
	}
	var out []hotRecord
	fromNs, toNs := unixNanos(from), unixNanos(to)
	for _, c := range s.targetSealed[id] {
		if !c.overlaps(fromNs, toNs) {
			continue
		}
		base := len(out)
		out = filterFrom(s.decodeForQuery(c, out), base, func(rec *hotRecord) bool {
			return rec.TargetID == id && rec.ns >= fromNs && rec.ns <= toNs
		})
	}
	sealedPart := len(out)
	if hist := s.byTarget[id]; len(hist) > 0 {
		lo := searchTime(hist, fromNs)
		hi := sort.Search(len(hist), func(i int) bool { return hist[i].ns > toNs })
		out = append(out, hist[lo:hi]...)
	}
	if sealedPart > 0 {
		return sortedRecords(out) // straggler seals and late hot records break seal order
	}
	return toRecords(out)
}

// TargetCount returns the number of records associated with a target.
func (s *Store) TargetCount(id uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scratch []hotRecord
	return len(s.byTarget[id]) + s.sealedTargetCount(id, &scratch)
}

// sealedTargetCount returns how many live sealed records target id has. A
// trimmed chunk (at most one per cell) may have lost them to its expired
// prefix, so it is decoded into scratch; the rest answer from their target
// sets. Caller holds (at least) the read lock.
func (s *Store) sealedTargetCount(id uint64, scratch *[]hotRecord) int {
	n := 0
	for _, c := range s.targetSealed[id] {
		if c.skip == 0 {
			n += c.targetCount(id)
			continue
		}
		for _, rec := range s.decodeScratch(c, scratch) {
			if rec.TargetID == id {
				n++
			}
		}
	}
	return n
}

// EvictBefore removes every record older than cutoff, returning the count
// (hot and sealed; the per-target index trims alongside).
//
//lint:allow testonly the retention property test's reference schedule: explicit eviction beside insert-time retention
func (s *Store) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked(unixNanos(cutoff))
}

// evictLocked removes every record before the UnixNano cutoff and returns
// how many went. Its work follows what expired: the hot tier is swept only
// when its watermark lies below the cutoff, and the expiry index is read only
// when its oldest bucket's watermark does — then bucket by bucket from the
// oldest, each wholly expired one dropped and the one holding the cutoff
// trimmed in place. A trim advances the view that cell and target lists
// share.
func (s *Store) evictLocked(cutoff int64) int {
	removed := 0
	if s.hotFloor < cutoff {
		for key, cell := range s.cells {
			s.sweepVisits++
			removed += cell.evictBefore(cutoff, nil)
			if cell.len() == 0 {
				delete(s.cells, key)
			}
		}
		for id, hist := range s.byTarget {
			s.sweepVisits++
			if lo := searchTime(hist, cutoff); lo > 0 {
				s.trimHistory(id, hist, lo)
			}
		}
		s.hotFloor = cutoff
	}
	for len(s.expiry) > 0 && s.expiry[0].first < cutoff {
		b := &s.expiry[0]
		kept, first := b.entries[:0], int64(math.MaxInt64)
		for _, e := range b.entries {
			s.expiryReads++
			if e.start < cutoff {
				s.sweepVisits++
				if e.c.end < cutoff {
					removed += e.c.count
					unlistChunk(s.sealed, e.key, e.c)
					for _, t := range e.c.targets {
						unlistChunk(s.targetSealed, t.id, e.c)
					}
					continue
				}
				removed += e.c.trimBefore(cutoff)
				e.start = e.c.start
			}
			kept = append(kept, e)
			first = min(first, e.start)
		}
		clear(b.entries[len(kept):])
		b.entries, b.first = kept, first
		if len(kept) == 0 {
			s.expiry = slices.Delete(s.expiry, 0, 1)
		}
	}
	if removed > 0 {
		s.n -= removed
		s.gen++
	}
	return removed
}

// unlistChunk removes c from the list under k, deleting a list it leaves
// empty.
func unlistChunk[K comparable](m map[K][]*sealedChunk, k K, c *sealedChunk) {
	list := m[k]
	i := slices.Index(list, c)
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(m, k)
	} else {
		m[k] = list
	}
}

// expiry is a sealed chunk's entry in the expiry index: its live start, kept
// beside the pointer so a bucket's live entries are read without touching
// their chunks, and the cell holding it.
type expiry struct {
	start int64
	c     *sealedChunk
	key   cellKey
}

// expiryBucket lists the sealed chunks of one rollupWidth step, in seal
// order. A chunk never spans a step, so whatever order chunks are sealed in
// (stragglers included), every chunk of a bucket before the cutoff's has
// expired whole, and only the cutoff's own bucket holds chunks to trim.
// first, the earliest live start of the bucket's chunks, is its watermark:
// retention reads no entry while the oldest bucket's lies at or past the
// cutoff.
type expiryBucket struct {
	idx     int64 // floor(start / rollupWidth) of every chunk listed
	first   int64
	entries []expiry
}
