package stindex

import (
	"math"
	"sort"
	"time"

	"stcam/internal/geo"
)

// Summary is a compact sketch of a store's contents: per coarse spatial
// cell, a record count, the bounding rect of the store cells feeding it,
// and a coarse time histogram. Workers piggyback it on heartbeats so the
// coordinator can prune query fan-out; stcam/internal/wire carries the same
// shape on the protocol (this package stays wire-free).
//
// The sketch is conservative by construction: cell bounds are unions of
// store-cell rects, so every record lies inside its cell's Bounds, and every
// record is counted in exactly one time bucket (coarse buckets are aligned
// to store bucket boundaries with a width that is an integer multiple of the
// store bucket width). A reader may therefore skip a worker whose summary
// shows no cell matching a query — never missing data the summary covers —
// and lower-bound a worker's nearest record by distance to its cell bounds.
type Summary struct {
	Records     int
	CellSize    float64       // effective coarse cell size (world units)
	BucketFrom  time.Time     // start of time bucket 0 (zero when empty)
	BucketWidth time.Duration // coarse bucket width (0 when empty)
	Cells       []SummaryCell
}

// SummaryCell is one non-empty coarse cell of a Summary.
type SummaryCell struct {
	CX, CY  int32
	Count   int64
	Bounds  geo.Rect
	Buckets []int64 // records per coarse time bucket, from Summary.BucketFrom
}

// Summarize builds a Summary with coarse cells of (at least) the requested
// size and at most timeBuckets coarse time buckets. The requested cell size
// is rounded up to an integer multiple of the store's grid cell size and the
// bucket width to a multiple of the store's bucket width, so the sketch
// aggregates whole store cells and whole store buckets: cost is
// O(cells + buckets), never O(records).
func (s *Store) Summarize(cellSize float64, timeBuckets int) Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()

	ratio := int32(1)
	if cellSize > s.cfg.CellSize {
		ratio = int32(math.Ceil(cellSize / s.cfg.CellSize))
	}
	effective := float64(ratio) * s.cfg.CellSize
	sum := Summary{Records: s.n, CellSize: effective}
	if s.n == 0 {
		return sum
	}
	if timeBuckets <= 0 {
		timeBuckets = 8
	}

	// Global time span across both tiers, at store-bucket granularity.
	sw := s.cfg.BucketWidth
	var from, end time.Time
	for _, cell := range s.cells {
		cf, ce, ok := cell.span()
		if !ok {
			continue
		}
		if from.IsZero() || cf.Before(from) {
			from = cf
		}
		if ce.After(end) {
			end = ce
		}
	}
	for _, chunks := range s.sealed {
		for _, c := range chunks {
			cf := time.Unix(0, floorDiv64(c.start, int64(sw))*int64(sw))
			ce := time.Unix(0, floorDiv64(c.end, int64(sw))*int64(sw)).Add(sw)
			if from.IsZero() || cf.Before(from) {
				from = cf
			}
			if ce.After(end) {
				end = ce
			}
		}
	}
	if from.IsZero() {
		return sum
	}
	span := end.Sub(from)
	width := span / time.Duration(timeBuckets)
	if rem := width % sw; rem != 0 || width == 0 {
		width += sw - rem
	}
	nb := int((span + width - 1) / width)
	if nb < 1 {
		nb = 1
	}
	sum.BucketFrom = from
	sum.BucketWidth = width

	acc := make(map[cellKey]*SummaryCell)
	coarse := func(key cellKey) *SummaryCell {
		ck := cellKey{cx: int32(floorDiv64(int64(key.cx), int64(ratio))), cy: int32(floorDiv64(int64(key.cy), int64(ratio)))}
		c, ok := acc[ck]
		if !ok {
			c = &SummaryCell{CX: ck.cx, CY: ck.cy, Bounds: s.cellRect(key), Buckets: make([]int64, nb)}
			acc[ck] = c
		} else {
			c.Bounds = c.Bounds.Union(s.cellRect(key))
		}
		return c
	}
	for key, cell := range s.cells {
		c := coarse(key)
		c.Count += int64(cell.len())
		for _, hb := range cell.buckets {
			i := int(time.Unix(0, hb.idx*cell.width).Sub(from) / width)
			if i < 0 {
				i = 0
			}
			if i >= nb {
				i = nb - 1
			}
			c.Buckets[i] += int64(len(hb.recs))
		}
	}
	// Sealed records fold in from chunk counts: O(chunks), never decoding.
	// A chunk's span can straddle several summary buckets, so its count is
	// credited to every one it overlaps — an over-count per bucket, which is
	// safe: readers treat buckets as absence proofs only (a false positive
	// merely skips a pruning opportunity), while Count and Records stay
	// exact.
	for key, chunks := range s.sealed {
		c := coarse(key)
		for _, ch := range chunks {
			n := int64(ch.count)
			c.Count += n
			i0 := min(max(int(time.Unix(0, ch.start).Sub(from)/width), 0), nb-1)
			i1 := min(max(int(time.Unix(0, ch.end).Sub(from)/width), 0), nb-1)
			for i := i0; i <= i1; i++ {
				c.Buckets[i] += n
			}
		}
	}
	sum.Cells = make([]SummaryCell, 0, len(acc))
	for _, c := range acc {
		sum.Cells = append(sum.Cells, *c)
	}
	sort.Slice(sum.Cells, func(i, j int) bool {
		if sum.Cells[i].CY != sum.Cells[j].CY {
			return sum.Cells[i].CY < sum.Cells[j].CY
		}
		return sum.Cells[i].CX < sum.Cells[j].CX
	})
	return sum
}
