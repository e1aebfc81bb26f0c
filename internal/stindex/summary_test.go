package stindex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

var sumT0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func randRecords(rng *rand.Rand, n int, from time.Time, span int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(rng.Intn(20)),
			Camera:   uint32(rng.Intn(8)),
			Pos:      geo.Pt(rng.Float64()*2000-500, rng.Float64()*2000-500),
			Time:     from.Add(time.Duration(rng.Intn(span)) * time.Second),
		})
	}
	return recs
}

func randStore(seed int64, n int) (*Store, []Record) {
	s := NewStore(Config{CellSize: 50, BucketWidth: 10 * time.Second, SealHorizon: neverSeal})
	recs := randRecords(rand.New(rand.NewSource(seed)), n, sumT0, 3600)
	for _, r := range recs {
		s.Insert(r)
	}
	return s, recs
}

// TestSummarizeConservative is the summary's core soundness property: every
// stored record must be covered by exactly one cell — position inside the
// cell's Bounds, counted in its Count, and counted in the time bucket that
// contains its timestamp. A summary violating this could cause a wrong prune.
// A tiered store credits each sealed chunk to every bucket its span
// overlaps, so there bucket sums may exceed the cell count; it is checked
// after a seal, after an eviction that cuts through chunks, and after late
// inserts below the seal frontier plus a straggler seal.
func TestSummarizeConservative(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		s, recs := randStore(seed, 500)
		checkSummaryConservative(t, fmt.Sprintf("seed %d flat", seed), s, recs, true)

		// Coarse cells and a 20 min seal granule, so chunks hold several
		// records and span minutes.
		rng := rand.New(rand.NewSource(seed))
		tiered := withChunkTarget(NewStore(Config{CellSize: 500, BucketWidth: 75 * time.Second, SealHorizon: 10 * time.Minute}), 8)
		recs = randRecords(rng, 500, sumT0, 3600)
		for _, r := range recs {
			tiered.Insert(r)
		}
		tiered.Seal()
		if ts := tiered.TierStats(); ts.SealedRecords == 0 {
			t.Fatalf("seed %d: nothing sealed", seed)
		}
		checkSummaryConservative(t, fmt.Sprintf("seed %d sealed", seed), tiered, recs, false)

		cutoff := sumT0.Add(1234*time.Second + 567*time.Millisecond)
		straddled := false
		for _, chunks := range tiered.sealed {
			for _, c := range chunks {
				straddled = straddled || (c.start < cutoff.UnixNano() && c.end >= cutoff.UnixNano())
			}
		}
		if !straddled {
			t.Fatalf("seed %d: no sealed chunk straddles the cutoff", seed)
		}
		tiered.EvictBefore(cutoff)
		live := recs[:0]
		for _, r := range recs {
			if !r.Time.Before(cutoff) {
				live = append(live, r)
			}
		}
		recs = live
		checkSummaryConservative(t, fmt.Sprintf("seed %d evicted", seed), tiered, recs, false)

		sealedBefore := tiered.TierStats().SealedRecords
		late := randRecords(rng, 200, cutoff, 1500) // all below the seal frontier
		for i := range late {
			late[i].ObsID += 1000
			tiered.Insert(late[i])
		}
		tiered.Seal()
		if got := tiered.TierStats().SealedRecords; got != sealedBefore+len(late) {
			t.Fatalf("seed %d: straggler seal left %d sealed records, want %d", seed, got, sealedBefore+len(late))
		}
		recs = append(recs, late...)
		checkSummaryConservative(t, fmt.Sprintf("seed %d late", seed), tiered, recs, false)
	}
}

// checkSummaryConservative checks s's summary against the records it holds.
// exact requires each cell's time buckets to sum to its count; otherwise
// they may exceed it.
func checkSummaryConservative(t *testing.T, label string, s *Store, recs []Record, exact bool) {
	t.Helper()
	sum := s.Summarize(200, 8)
	if sum.Records != len(recs) {
		t.Fatalf("%s: Records = %d, want %d", label, sum.Records, len(recs))
	}
	if rem := math.Mod(sum.CellSize, s.cfg.CellSize); rem != 0 {
		t.Fatalf("%s: coarse cell size %v not a multiple of %v", label, sum.CellSize, s.cfg.CellSize)
	}
	if sum.BucketWidth%s.cfg.BucketWidth != 0 {
		t.Fatalf("%s: bucket width %v not a multiple of %v", label, sum.BucketWidth, s.cfg.BucketWidth)
	}
	cells := make(map[[2]int32]*SummaryCell)
	var total int64
	for i := range sum.Cells {
		c := &sum.Cells[i]
		cells[[2]int32{c.CX, c.CY}] = c
		total += c.Count
		var bucketSum int64
		for _, b := range c.Buckets {
			bucketSum += b
		}
		if bucketSum < c.Count || (exact && bucketSum != c.Count) {
			t.Fatalf("%s: cell (%d,%d) buckets sum to %d, count %d", label, c.CX, c.CY, bucketSum, c.Count)
		}
	}
	if total != int64(len(recs)) {
		t.Fatalf("%s: cell counts sum to %d, want %d", label, total, len(recs))
	}
	for _, rec := range recs {
		key := [2]int32{
			int32(math.Floor(rec.Pos.X / sum.CellSize)),
			int32(math.Floor(rec.Pos.Y / sum.CellSize)),
		}
		c, ok := cells[key]
		if !ok {
			t.Fatalf("%s: record %d at %v has no summary cell %v", label, rec.ObsID, rec.Pos, key)
		}
		if !c.Bounds.Contains(rec.Pos) {
			t.Fatalf("%s: record %d at %v outside cell bounds %v", label, rec.ObsID, rec.Pos, c.Bounds)
		}
		i := int(rec.Time.Sub(sum.BucketFrom) / sum.BucketWidth)
		if i < 0 || i >= len(c.Buckets) || c.Buckets[i] == 0 {
			t.Fatalf("%s: record %d at %v not visible in time bucket %d of cell %v", label, rec.ObsID, rec.Time, i, key)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewStore(Config{})
	sum := s.Summarize(200, 8)
	if sum.Records != 0 || len(sum.Cells) != 0 {
		t.Fatalf("empty store summary = %+v", sum)
	}
	if !sum.BucketFrom.IsZero() || sum.BucketWidth != 0 {
		t.Fatalf("empty store summary has time span: %+v", sum)
	}
}

// TestSummarizeCellAggregation pins the coarse aggregation: records in
// adjacent store cells land in one coarse cell whose bounds union the store
// cell rects, including on the negative side of the origin (floor division).
func TestSummarizeCellAggregation(t *testing.T) {
	s := NewStore(Config{CellSize: 50, BucketWidth: 10 * time.Second})
	s.Insert(Record{ObsID: 1, Pos: geo.Pt(10, 10), Time: sumT0})
	s.Insert(Record{ObsID: 2, Pos: geo.Pt(90, 90), Time: sumT0})   // store cell (1,1), same coarse cell at 200
	s.Insert(Record{ObsID: 3, Pos: geo.Pt(-10, -10), Time: sumT0}) // coarse cell (-1,-1)
	sum := s.Summarize(200, 4)
	if len(sum.Cells) != 2 {
		t.Fatalf("cells = %d, want 2: %+v", len(sum.Cells), sum.Cells)
	}
	neg, pos := sum.Cells[0], sum.Cells[1] // sorted by (CY, CX)
	if neg.CX != -1 || neg.CY != -1 || neg.Count != 1 {
		t.Fatalf("negative cell = %+v", neg)
	}
	if pos.CX != 0 || pos.CY != 0 || pos.Count != 2 {
		t.Fatalf("positive cell = %+v", pos)
	}
	want := geo.RectOf(0, 0, 100, 100) // union of store cells (0,0) and (1,1)
	if pos.Bounds != want {
		t.Fatalf("positive cell bounds = %v, want %v", pos.Bounds, want)
	}
}

// TestKNNBoundedMatchesFiltered: a radius-bounded kNN must return exactly
// the unbounded result with candidates beyond the bound filtered out —
// including candidates at exactly the bound (inclusive semantics).
func TestKNNBoundedMatchesFiltered(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		s, recs := randStore(seed, 400)
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 50; trial++ {
			q := geo.Pt(rng.Float64()*2000-500, rng.Float64()*2000-500)
			from := sumT0.Add(time.Duration(rng.Intn(1800)) * time.Second)
			to := from.Add(time.Duration(rng.Intn(1800)) * time.Second)
			k := 1 + rng.Intn(10)
			full := s.KNN(q, from, to, len(recs))
			maxDist2 := 0.0
			if len(full) > 0 {
				maxDist2 = full[rng.Intn(len(full))].Dist2 // exercises ties at the bound
			}
			var want []Neighbor
			for _, n := range full {
				if n.Dist2 <= maxDist2 && len(want) < k {
					want = append(want, n)
				}
			}
			got := s.KNNBounded(q, from, to, k, maxDist2, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d trial %d: got %d neighbors, want %d", seed, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d trial %d: neighbor %d = %+v, want %+v", seed, trial, i, got[i], want[i])
				}
			}
		}
	}
}
