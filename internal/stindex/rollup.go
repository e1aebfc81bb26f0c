package stindex

import (
	"time"

	"stcam/internal/geo"
)

// A rollup is the pre-computed aggregate of one (spatial cell, coarse time
// bucket) worth of sealed records: a total count, the tight bounding rect of
// the record positions, and a density grid at RollupCellSize. Long-range
// Count and Heatmap queries whose window fully covers a rollup bucket are
// answered from these aggregates without touching the bucket's chunks; the
// in/out tests below are exact (bounds are actual record extents and rect
// boundaries are inclusive on both sides), so the rollup path returns the
// same answer the decoded records would — when it cannot prove that, it
// reports unresolvable and the caller decodes.

// rollupEntry aggregates the sealed records of one (cell, rollup bucket).
type rollupEntry struct {
	count  int64
	bounds geo.Rect
	grid   map[cellKey]*rollupSquare
}

// rollupSquare is one density-grid square of a rollupEntry.
type rollupSquare struct {
	count  int64
	bounds geo.Rect
}

func newRollupEntry() *rollupEntry {
	return &rollupEntry{bounds: geo.EmptyRect(), grid: make(map[cellKey]*rollupSquare)}
}

// add folds one record into the aggregate. gridSize is the store's
// RollupCellSize; gridKey is Heatmap's keying too, so rollup squares and
// query heat cells coincide when the sizes do.
func (e *rollupEntry) add(rec Record, gridSize float64) {
	e.count++
	e.bounds = e.bounds.UnionPoint(rec.Pos)
	key := gridKey(rec.Pos, gridSize)
	sq := e.grid[key]
	if sq == nil {
		sq = &rollupSquare{bounds: geo.EmptyRect()}
		e.grid[key] = sq
	}
	sq.count++
	sq.bounds = sq.bounds.UnionPoint(rec.Pos)
}

// countIn returns the number of the entry's records inside r, and whether the
// aggregate can prove the answer. Bounds fully inside r include everything;
// bounds strictly outside exclude everything (see coverOf). A grid square
// straddling r's boundary makes the answer unprovable — the caller must
// decode.
func (e *rollupEntry) countIn(r geo.Rect) (int64, bool) {
	switch coverOf(r, e.bounds) {
	case coverAll:
		return e.count, true
	case coverNone:
		return 0, true
	}
	var total int64
	for _, sq := range e.grid {
		switch coverOf(r, sq.bounds) {
		case coverAll:
			total += sq.count
		case coverSome:
			return 0, false
		}
	}
	return total, true
}

// heatInto folds the entry's density grid into acc and reports whether it
// could. It returns false — leaving acc untouched — when any square straddles
// r's boundary, in which case the caller falls back to decoding. The rollup
// grid and the query grid coincide (same size, same floor origin), so counts
// transfer key-for-key.
func (e *rollupEntry) heatInto(r geo.Rect, acc map[cellKey]int64) bool {
	if coverOf(r, e.bounds) == coverNone {
		return true
	}
	for _, sq := range e.grid {
		if coverOf(r, sq.bounds) == coverSome {
			return false
		}
	}
	for key, sq := range e.grid {
		if coverOf(r, sq.bounds) == coverAll {
			acc[key] += sq.count
		}
	}
	return true
}

// rollupBucket maps a time to its rollup bucket index (floor division, so
// pre-epoch times bucket correctly).
func (s *Store) rollupBucket(t time.Time) int64 {
	return floorDiv64(t.UnixNano(), int64(s.cfg.RollupWidth))
}

// rollupBucketStart returns the inclusive start instant of a rollup bucket.
func (s *Store) rollupBucketStart(b int64) time.Time {
	return time.Unix(0, b*int64(s.cfg.RollupWidth))
}

// windowCoversBucket reports whether [from, to] fully covers rollup bucket b,
// i.e. every record the bucket can hold lies inside the window.
func (s *Store) windowCoversBucket(from, to time.Time, b int64) bool {
	start := s.rollupBucketStart(b)
	last := start.Add(s.cfg.RollupWidth - time.Nanosecond) // last instant inside b
	return !from.After(start) && !to.Before(last)
}

// rebuildRollupLocked recomputes the rollup entry of (key, bucket) from the
// cell's surviving chunks, deleting it when the bucket has none left. Caller
// holds the write lock; eviction calls this for every bucket it touched.
func (s *Store) rebuildRollupLocked(key cellKey, bucket int64) {
	var e *rollupEntry
	for _, c := range s.sealed[key] {
		if c.bucket != bucket {
			continue
		}
		recs, err := decodeChunk(c.data)
		if err != nil {
			panic("stindex: sealed chunk decode: " + err.Error())
		}
		if e == nil {
			e = newRollupEntry()
		}
		for _, rec := range recs {
			e.add(rec, s.cfg.RollupCellSize)
		}
	}
	buckets := s.rollups[key]
	if e == nil {
		delete(buckets, bucket)
		if len(buckets) == 0 {
			delete(s.rollups, key)
		}
		return
	}
	if buckets == nil {
		buckets = make(map[int64]*rollupEntry)
		s.rollups[key] = buckets
	}
	buckets[bucket] = e
}

func floorDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
