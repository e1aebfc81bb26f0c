package stindex

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"stcam/internal/geo"
)

// The linear-scan oracle: a plain []Record holding exactly what the store
// should hold, answering Range, Count, Heatmap and target history by testing
// every record.
// The flat and tiered stores share the hot cell, so tiered ≡ flat no longer
// checks the hot tier's bucket proofs independently; this does, on stores
// whose records sit on cell edges, share timestamps and ObsIDs, arrive late,
// and leave bucket bounds as supersets after eviction and sealing.

type linearScan []Record

func (l linearScan) matches(r geo.Rect, from, to time.Time) []Record {
	if r.IsEmpty() || to.Before(from) {
		return nil
	}
	var out []Record
	for _, rec := range l {
		if !rec.Time.Before(from) && !rec.Time.After(to) && r.Contains(rec.Pos) {
			out = append(out, rec)
		}
	}
	return out
}

// heatOf bins matched records into squares of cellSize.
func heatOf(matched []Record, cellSize float64, keep func(Record) bool) []HeatCell {
	acc := map[[2]int32]int64{}
	for _, rec := range matched {
		if keep == nil || keep(rec) {
			acc[[2]int32{int32(math.Floor(rec.Pos.X / cellSize)), int32(math.Floor(rec.Pos.Y / cellSize))}]++
		}
	}
	out := make([]HeatCell, 0, len(acc))
	for k, n := range acc {
		out = append(out, HeatCell{CX: k[0], CY: k[1], Count: n})
	}
	return out
}

func (l linearScan) evictBefore(cutoff time.Time) linearScan {
	kept := l[:0]
	for _, rec := range l {
		if !rec.Time.Before(cutoff) {
			kept = append(kept, rec)
		}
	}
	return kept
}

// cmpRecord orders records by every field, bit patterns for positions.
func cmpRecord(a, b Record) int {
	return cmp.Or(
		a.Time.Compare(b.Time),
		cmp.Compare(a.ObsID, b.ObsID),
		cmp.Compare(a.TargetID, b.TargetID),
		cmp.Compare(a.Camera, b.Camera),
		cmp.Compare(math.Float64bits(a.Pos.X), math.Float64bits(b.Pos.X)),
		cmp.Compare(math.Float64bits(a.Pos.Y), math.Float64bits(b.Pos.Y)),
	)
}

// sameRecords reports whether a and b hold the same records, in any order,
// so two answers that differ only in the order of (Time, ObsID) ties agree.
func sameRecords(a, b []Record) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, cmpRecord)
	slices.SortFunc(b, cmpRecord)
	return slices.EqualFunc(a, b, func(x, y Record) bool { return cmpRecord(x, y) == 0 })
}

// history returns target id's records with time in [from, to].
func (l linearScan) history(id uint64, from, to time.Time) []Record {
	var out []Record
	for _, rec := range l {
		if rec.TargetID == id && !rec.Time.Before(from) && !rec.Time.After(to) {
			out = append(out, rec)
		}
	}
	return out
}

// checkTimeObsOrder fails unless recs are in (Time, ObsID) order.
func checkTimeObsOrder(t *testing.T, tag string, recs []Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		if cur, prev := hotOf(recs[i]), hotOf(recs[i-1]); recordLess(&cur, &prev) {
			t.Fatalf("%s: out of (Time, ObsID) order at %d: %v then %v", tag, i, recs[i-1], recs[i])
		}
	}
}

// checkOracle compares a store's Range, Count and Heatmap answers with the
// linear scan over a battery of rects and windows built from the records
// themselves: rect edges on record coordinates and cell boundaries, windows
// on bucket edges and one nanosecond either side of them. Rects reaching
// past the int32 cell-key range, to ±Inf, are among them. Each target's
// history, count and presence in Targets are checked too.
func checkOracle(t *testing.T, s *Store, ref linearScan, label string) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len %d, linear scan %d", label, s.Len(), len(ref))
	}
	cs := s.Config().CellSize
	bw := s.Config().BucketWidth
	rng := rand.New(rand.NewSource(int64(len(ref))))
	pick := func() Record { return ref[rng.Intn(len(ref))] }

	rects := []geo.Rect{
		geo.RectOf(-1e6, -1e6, 1e6, 1e6),
		geo.RectOf(0, 0, cs, cs),                // one cell, edges on cell boundaries
		geo.RectOf(-cs, -cs, 3*cs, 2*cs),        // several whole cells
		geo.RectOf(cs/3, -cs/2, 4.5*cs, 3.3*cs), // cuts cells
		geo.RectOf(0, 0, math.Inf(1), 2*cs),     // past the key range
		geo.RectOf(-1e12, -cs, 1e12, 3*cs),      // past the key range, finite
		geo.RectOf(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)),
	}
	for i := 0; i < 6; i++ {
		a, b := pick(), pick()
		rects = append(rects, geo.RectOf(a.Pos.X, a.Pos.Y, b.Pos.X, b.Pos.Y)) // edges on records
	}
	a := pick()
	rects = append(rects, geo.RectOf(a.Pos.X, a.Pos.Y, a.Pos.X, a.Pos.Y)) // degenerate: one point

	lo, hi := at(-time.Hour), at(24*time.Hour)
	windows := [][2]time.Time{{lo, hi}, {time.Time{}, hi}}
	for i := 0; i < 2; i++ {
		// From a bucket's first instant and one nanosecond either side, to
		// a later bucket's last instant and one or two either side.
		first := pick().Time.Truncate(bw)
		last := first.Add(time.Duration(1+rng.Intn(6))*bw - time.Nanosecond)
		for _, df := range []time.Duration{-1, 0, 1} {
			for _, dt := range []time.Duration{-2, -1, 0, 1} {
				windows = append(windows, [2]time.Time{first.Add(df), last.Add(dt)})
			}
		}
	}
	r1, r2 := pick(), pick()
	windows = append(windows, [2]time.Time{r1.Time, r1.Time}, [2]time.Time{r1.Time, r2.Time})

	oddCam := func(r Record) bool { return r.Camera%2 == 1 }
	for ri, r := range rects {
		for wi, w := range windows {
			tag := fmt.Sprintf("%s r%d=%v w%d=[%v, %v]", label, ri, r, wi, w[0], w[1])
			want := ref.matches(r, w[0], w[1])
			got := s.RangeQuery(r, w[0], w[1])
			checkTimeObsOrder(t, tag+": range", got)
			if !sameRecords(got, want) {
				t.Fatalf("%s: range diverged from linear scan\nstore:\n%s\nscan:\n%s", tag, dumpRecords(got), dumpRecords(want))
			}
			if g := s.Count(r, w[0], w[1]); g != len(want) {
				t.Fatalf("%s: count %d, linear scan %d", tag, g, len(want))
			}
			for _, size := range []float64{cs, 35} {
				gs, ws := dumpHeat(s.Heatmap(r, w[0], w[1], size, nil)), dumpHeat(heatOf(want, size, nil))
				if gs != ws {
					t.Fatalf("%s: heatmap %v diverged\nstore:\n%s\nscan:\n%s", tag, size, gs, ws)
				}
			}
			gs, ws := dumpHeat(s.Heatmap(r, w[0], w[1], cs, oddCam)), dumpHeat(heatOf(want, cs, oddCam))
			if gs != ws {
				t.Fatalf("%s: heatmap with keep diverged\nstore:\n%s\nscan:\n%s", tag, gs, ws)
			}
		}
	}

	var ids []uint64
	for _, rec := range ref {
		if rec.TargetID != 0 && !slices.Contains(ids, rec.TargetID) {
			ids = append(ids, rec.TargetID)
		}
	}
	slices.Sort(ids)
	if got := s.Targets(); !slices.Equal(got, ids) {
		t.Fatalf("%s: Targets %v, linear scan %v", label, got, ids)
	}
	for _, id := range ids {
		if g, w := s.TargetCount(id), len(ref.history(id, lo, hi)); g != w {
			t.Fatalf("%s: TargetCount(%d) %d, linear scan %d", label, id, g, w)
		}
		for wi, w := range windows {
			tag := fmt.Sprintf("%s history %d w%d=[%v, %v]", label, id, wi, w[0], w[1])
			got, want := s.TargetHistory(id, w[0], w[1]), ref.history(id, w[0], w[1])
			checkTimeObsOrder(t, tag, got)
			if !sameRecords(got, want) {
				t.Fatalf("%s: diverged from linear scan\nstore:\n%s\nscan:\n%s", tag, dumpRecords(got), dumpRecords(want))
			}
		}
	}
}

// edgeWorkload produces records that stress the bucket proofs: coordinates
// at k·cell and at the next float below it, times on the first and last
// nanosecond of a bucket, runs of identical timestamps, reused ObsIDs, and
// late arrivals up to 30 s behind the stream.
func edgeWorkload(rng *rand.Rand, n int, cell float64, bucket time.Duration, firstID uint64) []Record {
	coord := func() float64 {
		k := float64(rng.Intn(9) - 2)
		switch rng.Intn(4) {
		case 0:
			return k * cell
		case 1:
			return math.Nextafter(k*cell, math.Inf(-1))
		case 2:
			return math.Round((rng.Float64()*9*cell-2*cell)*posScale) / posScale
		}
		return rng.Float64()*9*cell - 2*cell
	}
	recs := make([]Record, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 { // else: same timestamp as the previous record
			now += time.Duration(rng.Intn(30)) * time.Millisecond
		}
		ts := now
		if rng.Intn(100) < 12 {
			ts -= time.Duration(rng.Intn(30000)) * time.Millisecond
		}
		if rng.Intn(10) == 0 {
			ts = ts.Truncate(bucket) - time.Duration(rng.Intn(2))
		}
		id := firstID + uint64(i)
		if i > 0 && rng.Intn(20) == 0 {
			id = recs[rng.Intn(len(recs))].ObsID // duplicate ObsID
		}
		recs = append(recs, Record{
			ObsID:    id,
			TargetID: uint64(rng.Intn(6)),
			Camera:   uint32(rng.Intn(8)),
			Pos:      geo.Pt(coord(), coord()),
			Time:     at(ts),
		})
	}
	return recs
}

// supersetBuckets counts hot buckets whose bounds are strictly wider than
// their records' extent — the state eviction and sealing leave behind.
func supersetBuckets(s *Store) int {
	n := 0
	for _, cell := range s.cells {
		for _, hb := range cell.buckets {
			tight := geo.EmptyRect()
			for _, rec := range hb.recs {
				tight = tight.UnionPoint(rec.Pos)
			}
			if tight != hb.bounds {
				n++
			}
		}
	}
	return n
}

func TestStoreMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{CellSize: 50, BucketWidth: time.Second, SealHorizon: neverSeal}},
		{"tiered", Config{CellSize: 50, BucketWidth: 500 * time.Millisecond, SealHorizon: 10 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			s := withChunkTarget(NewStore(tc.cfg), 32)
			var ref linearScan
			recs := edgeWorkload(rng, 3000, tc.cfg.CellSize, tc.cfg.BucketWidth, 1)
			for i, rec := range recs {
				s.Insert(rec)
				ref = append(ref, rec)
				if (i+1)%1000 == 0 {
					checkOracle(t, s, ref, fmt.Sprintf("after %d inserts", i+1))
					s.Seal()
					checkOracle(t, s, ref, fmt.Sprintf("after %d inserts + seal", i+1))
				}
			}
			// Mid-bucket cutoffs filter the boundary bucket and leave its
			// bounds covering records that are gone. The last one lands
			// above the tiered store's seal frontier, on a record's time.
			hotCut := at(28*time.Second + 499*time.Millisecond)
			for _, rec := range recs {
				if rec.Time.After(hotCut) {
					hotCut = rec.Time
					break
				}
			}
			supersets := 0
			for _, cut := range []time.Time{at(9*time.Second + 217*time.Millisecond), at(22*time.Second + 501*time.Millisecond), hotCut} {
				s.EvictBefore(cut)
				ref = ref.evictBefore(cut)
				supersets += supersetBuckets(s)
				checkOracle(t, s, ref, fmt.Sprintf("after evict %v", cut.Sub(t0)))
			}
			if supersets == 0 {
				t.Fatal("vacuous: eviction left no hot bucket with superset bounds")
			}
			// Late records behind the seal frontier, then a straggler seal.
			for _, rec := range edgeWorkload(rng, 500, tc.cfg.CellSize, tc.cfg.BucketWidth, 1_000_000) {
				rec.Time = rec.Time.Add(25 * time.Second)
				s.Insert(rec)
				ref = append(ref, rec)
			}
			checkOracle(t, s, ref, "after late inserts")
			s.Seal()
			checkOracle(t, s, ref, "after straggler seal")
		})
	}
}

// TestSortRecordsMatchesStableSort: the key-sort-then-gather permutation is
// the stable (Time, ObsID) sort, on inputs with heavy key duplication, both
// in place (sortRecords; the trials share one key buffer, as seals do) and
// converting into a query answer (sortedRecords).
func TestSortRecordsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var keys []recordKey
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				ObsID:    uint64(rng.Intn(8)),
				TargetID: uint64(i), // tells equal keys apart
				Time:     at(time.Duration(rng.Intn(10)) * time.Millisecond),
			}
		}
		if trial%5 == 0 {
			slices.SortStableFunc(recs, func(a, b Record) int { return a.Time.Compare(b.Time) })
		}
		want := slices.Clone(recs)
		sort.SliceStable(want, func(i, j int) bool {
			if !want[i].Time.Equal(want[j].Time) {
				return want[i].Time.Before(want[j].Time)
			}
			return want[i].ObsID < want[j].ObsID
		})
		hs := hotRecords(recs)
		if g, w := dumpRecords(sortedRecords(hs)), dumpRecords(want); g != w {
			t.Fatalf("trial %d: sortedRecords diverged from the stable sort\ngot:\n%s\nwant:\n%s", trial, g, w)
		}
		keys = sortRecords(hs, keys)
		if g, w := dumpRecords(toRecords(hs)), dumpRecords(want); g != w {
			t.Fatalf("trial %d: sortRecords diverged from the stable sort\ngot:\n%s\nwant:\n%s", trial, g, w)
		}
	}
}
