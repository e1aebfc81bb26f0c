// Package stindex implements the per-worker spatio-temporal observation
// store: a uniform spatial grid whose cells hold time-bucketed observation
// records, plus a per-target history index and a feedback-driven selectivity
// histogram. It answers the snapshot query repertoire of the framework —
// spatio-temporal range, k-nearest within a time window, target history and
// trajectory reconstruction — and supports retention eviction.
//
// With SealHorizon configured the store is tiered: recent records stay in
// mutable bucket cells (the hot tier, hot.go), and records aging past the
// horizon are compacted into immutable delta-compressed chunks that carry
// their record count, time span and bounding rect (chunk.go). Hot buckets
// and sealed chunks settle against a query by one proof (query.settle), so
// aggregates count whole chunks without decoding them. Queries consult both
// tiers and return
// exactly what the flat store would; the differential suite in
// tier_differential_test.go holds that equivalence across seal boundaries,
// eviction and out-of-order ingest.
package stindex

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	BucketWidth time.Duration // temporal bucket width (default 10s)
	Retention   time.Duration // 0 → keep everything until EvictBefore is called

	// SealHorizon enables the sealed tier: records older than latest −
	// SealHorizon are compacted into immutable compressed chunks. 0 keeps
	// the store flat (everything hot), the pre-tiering behavior.
	SealHorizon time.Duration
	// RollupWidth is the seal granule: the frontier advances in steps of it,
	// and cell chunks never span one (default 16 × BucketWidth, rounded up
	// to a BucketWidth multiple).
	RollupWidth time.Duration
	// ChunkTarget caps records per sealed chunk (default 512).
	ChunkTarget int
}

func (c *Config) fill() {
	if c.CellSize <= 0 {
		c.CellSize = 50
	}
	if c.BucketWidth <= 0 {
		c.BucketWidth = 10 * time.Second
	}
	if c.SealHorizon > 0 {
		if c.RollupWidth <= 0 {
			c.RollupWidth = 16 * c.BucketWidth
		}
		if rem := c.RollupWidth % c.BucketWidth; rem != 0 {
			c.RollupWidth += c.BucketWidth - rem
		}
		if c.ChunkTarget <= 0 {
			c.ChunkTarget = 512
		}
	}
}

// Maintenance cadences for streams that do not advance the high-water mark:
// a late/replayed stream (timestamps ≤ latest) must still trigger retention
// eviction and straggler sealing, or expired data accumulates unboundedly
// until a newer record happens to arrive.
const (
	evictCheckEvery = 256  // inserts between forced retention checks
	sealCheckEvery  = 1024 // pre-frontier inserts between straggler seal sweeps
)

// Store is the spatio-temporal index. Safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.RWMutex
	cells    map[cellKey]*hotCell
	byTarget map[uint64][]Record // time-ordered per target (hot tier)
	n        int                 // cell-side records across both tiers
	latest   time.Time

	// Sealed tier (cfg.SealHorizon > 0). sealed holds each cell's chunks in
	// seal order; targetSealed holds per-target history prefixes in history
	// order. sealFrontier is the exclusive upper bound of sealed time: after
	// a seal sweep no hot record is older than it (late arrivals may dip
	// below until the next sweep compacts them).
	sealed        map[cellKey][]*sealedChunk
	targetSealed  map[uint64][]*sealedChunk
	sealFrontier  time.Time
	lateSinceSeal int

	earliest   time.Time // eviction watermark: no record is older than this
	sinceEvict int
	gen        uint64 // bumped on every mutation (insert/seal/evict)

	cellTier, targetTier chunkStats

	queryDecodes atomic.Uint64 // chunks decoded to answer queries
	rollupHits   atomic.Uint64 // chunks counted whole, without decoding
}

// chunkStats accounts a set of sealed chunks.
type chunkStats struct {
	chunks, records int
	bytes           int64
}

func (a *chunkStats) add(c *sealedChunk) {
	a.chunks++
	a.records += c.count
	a.bytes += int64(len(c.data))
}

func (a *chunkStats) remove(c *sealedChunk) {
	a.chunks--
	a.records -= c.count
	a.bytes -= int64(len(c.data))
}

type cellKey struct{ cx, cy int32 }

// NewStore returns an empty store with the given configuration.
func NewStore(cfg Config) *Store {
	cfg.fill()
	return &Store{
		cfg:          cfg,
		cells:        make(map[cellKey]*hotCell),
		byTarget:     make(map[uint64][]Record),
		sealed:       make(map[cellKey][]*sealedChunk),
		targetSealed: make(map[uint64][]*sealedChunk),
	}
}

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Len returns the number of stored records (hot + sealed).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Latest returns the most recent record time seen (zero when empty).
func (s *Store) Latest() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latest
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

// TierStats reports sealed-tier sizes and query-path counters. All zeros when
// the store runs flat.
type TierStats struct {
	SealedChunks  int    // cell-side chunks resident
	SealedRecords int    // records held in cell-side chunks
	SealedBytes   int64  // encoded bytes of cell-side chunks
	TargetChunks  int    // per-target history chunks resident
	TargetRecords int    // records held in target chunks
	TargetBytes   int64  // encoded bytes of target chunks
	QueryDecodes  uint64 // cumulative chunks decoded to answer queries
	RollupHits    uint64 // cumulative sealed chunks answered without decoding
}

// TierStats returns a snapshot of the sealed tier.
func (s *Store) TierStats() TierStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return TierStats{
		SealedChunks:  s.cellTier.chunks,
		SealedRecords: s.cellTier.records,
		SealedBytes:   s.cellTier.bytes,
		TargetChunks:  s.targetTier.chunks,
		TargetRecords: s.targetTier.records,
		TargetBytes:   s.targetTier.bytes,
		QueryDecodes:  s.queryDecodes.Load(),
		RollupHits:    s.rollupHits.Load(),
	}
}

func (s *Store) keyOf(p geo.Point) cellKey { return gridKey(p, s.cfg.CellSize) }

// Insert adds a record. When Retention is configured, expired data is evicted
// opportunistically — on inserts that advance the high-water mark and on a
// record-count cadence for late/replayed streams. When SealHorizon is
// configured, aged buckets are compacted into the sealed tier on the way.
// All maintenance runs inside the same critical section as the insert:
// readers can never observe already-expired records, and two racing inserts
// cannot both run a full eviction sweep.
func (s *Store) Insert(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(rec)
}

func (s *Store) insertLocked(rec Record) {
	key := s.keyOf(rec.Pos)
	cell, ok := s.cells[key]
	if !ok {
		cell = newHotCell(s.cfg.BucketWidth)
		s.cells[key] = cell
	}
	cell.add(rec)
	s.n++
	s.gen++
	advanced := rec.Time.After(s.latest)
	if advanced {
		s.latest = rec.Time
	}
	if s.earliest.IsZero() || rec.Time.Before(s.earliest) {
		s.earliest = rec.Time
	}
	if rec.TargetID != 0 {
		hist := s.byTarget[rec.TargetID]
		// Insert keeping time order; appends are the common case.
		if n := len(hist); n == 0 || !rec.Time.Before(hist[n-1].Time) {
			s.byTarget[rec.TargetID] = append(hist, rec)
		} else {
			i := sort.Search(n, func(i int) bool { return hist[i].Time.After(rec.Time) })
			hist = append(hist, Record{})
			copy(hist[i+1:], hist[i:])
			hist[i] = rec
			s.byTarget[rec.TargetID] = hist
		}
	}
	if s.cfg.SealHorizon > 0 {
		if !s.sealFrontier.IsZero() && rec.Time.Before(s.sealFrontier) {
			s.lateSinceSeal++
		}
		frontier := s.latest.Add(-s.cfg.SealHorizon)
		// Seal once per RollupWidth of frontier progress, or when enough
		// stragglers landed behind the frontier to be worth compacting.
		if frontier.Sub(s.sealFrontier) >= s.cfg.RollupWidth || s.lateSinceSeal >= sealCheckEvery {
			s.sealLocked(frontier)
		}
	}
	if s.cfg.Retention > 0 {
		s.sinceEvict++
		if advanced || s.sinceEvict >= evictCheckEvery {
			s.sinceEvict = 0
			cutoff := s.latest.Add(-s.cfg.Retention)
			// Watermark check keeps the no-op case O(1): a sweep runs only
			// when something can actually be older than the cutoff.
			if s.earliest.Before(cutoff) {
				s.evictLocked(cutoff)
			}
		}
	}
}

// Seal compacts every record older than latest − SealHorizon into the sealed
// tier and returns how many records moved. Inserts do this opportunistically;
// Seal forces it (tests, benchmarks, explicit compaction). No-op on a flat
// store.
func (s *Store) Seal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.SealHorizon <= 0 || s.latest.IsZero() {
		return 0
	}
	return s.sealLocked(s.latest.Add(-s.cfg.SealHorizon))
}

// sealLocked moves every cell record strictly before the frontier into
// sealed chunks (grouped by RollupWidth bucket, split at ChunkTarget) and
// seals the matching per-target history prefixes. Record counts do not
// change — records move between tiers. Caller holds the write lock.
func (s *Store) sealLocked(frontier time.Time) int {
	if frontier.After(s.sealFrontier) {
		s.sealFrontier = frontier
	} else {
		// Straggler sweep: re-seal up to the existing frontier.
		frontier = s.sealFrontier
	}
	s.lateSinceSeal = 0
	if frontier.IsZero() {
		return 0
	}
	s.gen++
	sealedCount := 0
	for key, cell := range s.cells {
		if start, _, ok := cell.span(); !ok || !start.Before(frontier) {
			continue
		}
		var recs []Record
		cell.evictBefore(frontier.UnixNano(), &recs)
		if cell.len() == 0 {
			delete(s.cells, key)
		}
		if len(recs) == 0 {
			continue
		}
		// Cell chunks never span a RollupWidth bucket.
		sortRecords(recs)
		width := int64(s.cfg.RollupWidth)
		for i := 0; i < len(recs); {
			b := floorDiv64(recs[i].Time.UnixNano(), width)
			j := i + 1
			for j < len(recs) && floorDiv64(recs[j].Time.UnixNano(), width) == b {
				j++
			}
			s.sealed[key] = s.appendChunks(s.sealed[key], recs[i:j], &s.cellTier)
			i = j
		}
		sealedCount += len(recs)
	}
	for id, hist := range s.byTarget {
		lo := sort.Search(len(hist), func(i int) bool { return !hist[i].Time.Before(frontier) })
		if lo == 0 {
			continue
		}
		// The concatenation of a target's chunks in seal order plus its hot
		// tail reproduces the flat history array.
		s.targetSealed[id] = s.appendChunks(s.targetSealed[id], hist[:lo], &s.targetTier)
		if lo == len(hist) {
			delete(s.byTarget, id)
		} else {
			s.byTarget[id] = append([]Record(nil), hist[lo:]...)
		}
	}
	return sealedCount
}

// appendChunks encodes time-ordered records into chunks of at most
// ChunkTarget records, appends them onto list in order and accounts them in
// acct.
func (s *Store) appendChunks(list []*sealedChunk, recs []Record, acct *chunkStats) []*sealedChunk {
	for k := 0; k < len(recs); k += s.cfg.ChunkTarget {
		c := newSealedChunk(recs[k:min(k+s.cfg.ChunkTarget, len(recs))])
		acct.add(c)
		list = append(list, c)
	}
	return list
}

// decodeForQuery decodes a sealed chunk on the query path, counting the
// decode.
func (s *Store) decodeForQuery(c *sealedChunk) []Record {
	s.queryDecodes.Add(1)
	return c.decode()
}

// eachSealed calls fn for every record of cell key's sealed chunks matching
// q. It decodes only the chunks that q cannot skip whole. Caller holds (at
// least) the read lock.
func (s *Store) eachSealed(key cellKey, q query, fn func(*Record)) {
	for _, c := range s.sealed[key] {
		if q.settle(c.start, c.end, c.bounds) == coverNone {
			continue
		}
		recs := s.decodeForQuery(c)
		for i := range recs {
			if q.match(&recs[i]) {
				fn(&recs[i])
			}
		}
	}
}

// countCellLocked returns how many of cell key's records, hot and sealed,
// match q. Hot buckets and sealed chunks q settles whole add their count
// without visiting records or decoding. Caller holds (at least) the read
// lock.
func (s *Store) countCellLocked(key cellKey, q query) int {
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
			recs := s.decodeForQuery(c)
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
// time then ObsID. Hot buckets the query covers whole are appended in bulk;
// the result is allocated once, sized from bucket and chunk counts.
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
	out := make([]Record, 0, size)
	s.forEachCellKeyIn(r, func(key cellKey) {
		if cell, ok := s.cells[key]; ok {
			out = cell.appendTo(out, q)
		}
		s.eachSealed(key, q, func(rec *Record) { out = append(out, *rec) })
	})
	if len(out) == 0 {
		return nil
	}
	sortRecords(out)
	return out
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
	s.forEachCellKeyIn(r, func(key cellKey) {
		count += s.countCellLocked(key, q)
	})
	return count
}

// forEachCellKeyIn visits every cell key overlapping r that has data in
// either tier. Caller holds the read lock.
func (s *Store) forEachCellKeyIn(r geo.Rect, fn func(cellKey)) {
	lo, hi := s.keyOf(r.Min), s.keyOf(r.Max)
	nx, ny := int64(hi.cx)-int64(lo.cx)+1, int64(hi.cy)-int64(lo.cy)+1
	if nx*ny > int64(len(s.cells)+len(s.sealed))*2 {
		for key := range s.cells {
			if s.cellRect(key).Intersects(r) {
				fn(key)
			}
		}
		for key := range s.sealed {
			if _, hot := s.cells[key]; hot {
				continue // already visited
			}
			if s.cellRect(key).Intersects(r) {
				fn(key)
			}
		}
		return
	}
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			key := cellKey{cx, cy}
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

func (s *Store) cellRect(k cellKey) geo.Rect {
	cs := s.cfg.CellSize
	return geo.RectOf(float64(k.cx)*cs, float64(k.cy)*cs, float64(k.cx+1)*cs, float64(k.cy+1)*cs)
}

// KNN returns the k records nearest to q among those with time in [from, to],
// ascending by distance with ObsID tie-break. It expands rings of grid cells
// outward from q, pruning once the k-th distance beats the next ring.
func (s *Store) KNN(q geo.Point, from, to time.Time, k int) []Neighbor {
	return s.KNNFunc(q, from, to, k, nil)
}

// KNNFunc is KNN with a candidate predicate: records for which keep returns
// false are skipped (nil keeps everything). The worker uses it to answer from
// primary-camera data only when replication is on.
func (s *Store) KNNFunc(q geo.Point, from, to time.Time, k int, keep func(Record) bool) []Neighbor {
	return s.KNNBounded(q, from, to, k, 0, keep)
}

// KNNBounded is KNNFunc with a pushed-down radius bound: when maxDist2 > 0,
// candidates with squared distance strictly greater than maxDist2 are
// discarded (the bound is inclusive, preserving ties at exactly maxDist2)
// and ring expansion stops as soon as the next ring cannot reach the bound.
// The coordinator's two-phase kNN uses this to keep later-phase probes from
// materializing candidates that cannot displace the current global top k.
func (s *Store) KNNBounded(q geo.Point, from, to time.Time, k int, maxDist2 float64, keep func(Record) bool) []Neighbor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if k <= 0 || s.n == 0 || to.Before(from) {
		return nil
	}
	center := s.keyOf(q)
	maxRing := 1
	widen := func(key cellKey) {
		dx := int(key.cx) - int(center.cx)
		if dx < 0 {
			dx = -dx
		}
		dy := int(key.cy) - int(center.cy)
		if dy < 0 {
			dy = -dy
		}
		if dx > maxRing {
			maxRing = dx
		}
		if dy > maxRing {
			maxRing = dy
		}
	}
	for key := range s.cells {
		widen(key)
	}
	for key := range s.sealed {
		widen(key)
	}
	var best []Neighbor // max-heap by (Dist2, ObsID)
	less := func(a, b Neighbor) bool {
		if a.Dist2 != b.Dist2 {
			return a.Dist2 < b.Dist2
		}
		return a.ObsID < b.ObsID
	}
	offer := func(n Neighbor) {
		if len(best) < k {
			best = append(best, n)
			for i := len(best) - 1; i > 0; {
				p := (i - 1) / 2
				if less(best[p], best[i]) {
					best[p], best[i] = best[i], best[p]
					i = p
				} else {
					break
				}
			}
			return
		}
		if less(n, best[0]) {
			best[0] = n
			i := 0
			for {
				l, r := 2*i+1, 2*i+2
				largest := i
				if l < len(best) && less(best[largest], best[l]) {
					largest = l
				}
				if r < len(best) && less(best[largest], best[r]) {
					largest = r
				}
				if largest == i {
					break
				}
				best[i], best[largest] = best[largest], best[i]
				i = largest
			}
		}
	}
	consider := func(rec Record) {
		if keep == nil || keep(rec) {
			d2 := q.Dist2(rec.Pos)
			if maxDist2 > 0 && d2 > maxDist2 {
				return
			}
			offer(Neighbor{Record: rec, Dist2: d2})
		}
	}
	fromNs, toNs := unixNanos(from), unixNanos(to)
	scan := func(key cellKey) {
		if cell, ok := s.cells[key]; ok {
			bs := cell.window(fromNs, toNs)
			for i := range bs {
				for j := range bs[i].recs {
					if ns := bs[i].recs[j].Time.UnixNano(); ns >= fromNs && ns <= toNs {
						consider(bs[i].recs[j])
					}
				}
			}
		}
		for _, c := range s.sealed[key] {
			if !c.overlaps(fromNs, toNs) {
				continue
			}
			for _, rec := range s.decodeForQuery(c) {
				if ns := rec.Time.UnixNano(); ns >= fromNs && ns <= toNs {
					consider(rec)
				}
			}
		}
	}
	for ring := 0; ring <= maxRing; ring++ {
		if ring > 0 {
			minDist := float64(ring-1) * s.cfg.CellSize
			if minDist > 0 {
				if len(best) == k && minDist*minDist > best[0].Dist2 {
					break
				}
				if maxDist2 > 0 && minDist*minDist > maxDist2 {
					break
				}
			}
		}
		if ring == 0 {
			scan(center)
			continue
		}
		lo := int(center.cx) - ring
		hi := int(center.cx) + ring
		for cx := lo; cx <= hi; cx++ {
			scan(cellKey{int32(cx), center.cy - int32(ring)})
			scan(cellKey{int32(cx), center.cy + int32(ring)})
		}
		for cy := int(center.cy) - ring + 1; cy <= int(center.cy)+ring-1; cy++ {
			scan(cellKey{center.cx - int32(ring), int32(cy)})
			scan(cellKey{center.cx + int32(ring), int32(cy)})
		}
	}
	sort.Slice(best, func(i, j int) bool { return less(best[i], best[j]) })
	return best
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
	tally := func(rec *Record) {
		if keep == nil || keep(*rec) {
			acc[gridKey(rec.Pos, cellSize)]++
		}
	}
	s.forEachCellKeyIn(r, func(key cellKey) {
		if ownKey {
			if n := s.countCellLocked(key, q); n > 0 {
				acc[key] = int64(n)
			}
			return
		}
		if cell, ok := s.cells[key]; ok {
			cell.each(q, tally)
		}
		s.eachSealed(key, q, tally)
	})
	out := make([]HeatCell, 0, len(acc))
	for key, n := range acc {
		out = append(out, HeatCell{CX: key.cx, CY: key.cy, Count: n})
	}
	return out
}

// TargetHistory returns the records associated with a target in [from, to],
// time-ordered (insertion order among equal timestamps, matching the flat
// store: sealed chunks concatenate in seal order, the hot tail follows, and
// a stable sort merges late arrivals into place).
func (s *Store) TargetHistory(id uint64, from, to time.Time) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if to.Before(from) {
		return nil
	}
	var out []Record
	sealedPart := 0
	fromNs, toNs := unixNanos(from), unixNanos(to)
	for _, c := range s.targetSealed[id] {
		if !c.overlaps(fromNs, toNs) {
			continue
		}
		for _, rec := range s.decodeForQuery(c) {
			if !rec.Time.Before(from) && !rec.Time.After(to) {
				out = append(out, rec)
			}
		}
	}
	sealedPart = len(out)
	if hist := s.byTarget[id]; len(hist) > 0 {
		lo := sort.Search(len(hist), func(i int) bool { return !hist[i].Time.Before(from) })
		hi := sort.Search(len(hist), func(i int) bool { return hist[i].Time.After(to) })
		if lo < hi {
			out = append(out, hist[lo:hi]...)
		}
	}
	if sealedPart > 0 {
		// Straggler seals append old records after newer chunks, and late
		// arrivals can leave hot records older than sealed ones; a stable
		// sort restores global time order while preserving the insertion
		// order the tiers already encode for equal timestamps.
		sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	}
	return out
}

// TargetCount returns the number of records associated with a target.
func (s *Store) TargetCount(id uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.byTarget[id])
	for _, c := range s.targetSealed[id] {
		n += c.count
	}
	return n
}

// Trajectory reconstructs a target's path over [from, to] from its indexed
// observations.
func (s *Store) Trajectory(id uint64, from, to time.Time) geo.Trajectory {
	recs := s.TargetHistory(id, from, to)
	var tr geo.Trajectory
	for _, rec := range recs {
		tr.Append(rec.Time, rec.Pos)
	}
	return tr
}

// Targets returns the IDs with at least one associated record, sorted.
func (s *Store) Targets() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, 0, len(s.byTarget)+len(s.targetSealed))
	for id := range s.byTarget {
		out = append(out, id)
	}
	for id := range s.targetSealed {
		if _, hot := s.byTarget[id]; !hot {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvictBefore removes every record older than cutoff, returning the count
// (cell-side records, hot and sealed; the per-target index trims alongside).
func (s *Store) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked(cutoff)
}

func (s *Store) evictLocked(cutoff time.Time) int {
	removed := 0
	cutoffNs := unixNanos(cutoff)
	for key, cell := range s.cells {
		removed += cell.evictBefore(cutoffNs, nil)
		if cell.len() == 0 {
			delete(s.cells, key)
		}
	}
	removed += evictChunks(s.sealed, cutoffNs, &s.cellTier)
	for id, hist := range s.byTarget {
		lo := sort.Search(len(hist), func(i int) bool { return !hist[i].Time.Before(cutoff) })
		if lo == 0 {
			continue
		}
		if lo == len(hist) {
			delete(s.byTarget, id)
			continue
		}
		s.byTarget[id] = append([]Record(nil), hist[lo:]...)
	}
	// Target chunks index the cell records already counted above.
	evictChunks(s.targetSealed, cutoffNs, &s.targetTier)
	s.n -= removed
	if s.earliest.Before(cutoff) {
		s.earliest = cutoff
	}
	s.gen++
	return removed
}

// evictChunks drops every record before the UnixNano cutoff from the chunk
// lists in m: chunks ending before it leave whole, a chunk straddling it is
// re-encoded to its surviving suffix, and lists left empty are deleted. It
// updates acct and returns how many records went.
func evictChunks[K comparable](m map[K][]*sealedChunk, cutoff int64, acct *chunkStats) int {
	removed := 0
	for key, chunks := range m {
		kept := chunks[:0]
		for _, c := range chunks {
			if c.start >= cutoff {
				kept = append(kept, c)
				continue
			}
			acct.remove(c)
			if c.end < cutoff {
				removed += c.count
				continue
			}
			recs := c.decode()
			live := recs[:0]
			for _, rec := range recs {
				if rec.Time.UnixNano() >= cutoff {
					live = append(live, rec)
				}
			}
			removed += c.count - len(live)
			if len(live) > 0 {
				nc := newSealedChunk(live)
				acct.add(nc)
				kept = append(kept, nc)
			}
		}
		if len(kept) == 0 {
			delete(m, key)
		} else {
			m[key] = kept
		}
	}
	return removed
}

// CellCount returns the number of spatial cells with data in either tier.
func (s *Store) CellCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.cells)
	for key := range s.sealed {
		if _, hot := s.cells[key]; !hot {
			n++
		}
	}
	return n
}
