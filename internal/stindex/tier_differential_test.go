package stindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stcam/internal/geo"
)

// The tiered store must be observationally identical to the flat store: same
// records, same order, same counts, same neighbors, same heat cells — across
// seal boundaries, eviction, and out-of-order ingest. These tests drive both
// stores through identical workloads (with explicit Seal calls on the tiered
// side) and compare canonical dumps of every query kind byte-for-byte.

func dumpRecords(recs []Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%d|%d|%d|%x|%x|%d\n",
			r.ObsID, r.TargetID, r.Camera,
			math.Float64bits(r.Pos.X), math.Float64bits(r.Pos.Y), r.Time.UnixNano())
	}
	return b.String()
}

func dumpNeighbors(ns []Neighbor) string {
	var b strings.Builder
	for _, n := range ns {
		fmt.Fprintf(&b, "%x|%d|%d|%d|%x|%x|%d\n",
			math.Float64bits(n.Dist2), n.ObsID, n.TargetID, n.Camera,
			math.Float64bits(n.Pos.X), math.Float64bits(n.Pos.Y), n.Time.UnixNano())
	}
	return b.String()
}

func dumpHeat(cells []HeatCell) string {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].CY != cells[j].CY {
			return cells[i].CY < cells[j].CY
		}
		return cells[i].CX < cells[j].CX
	})
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%d=%d\n", c.CX, c.CY, c.Count)
	}
	return b.String()
}

// diffBattery compares every query kind over a deterministic set of rects,
// windows and targets. label names the workload phase for failure messages.
func diffBattery(t *testing.T, flat, tiered *Store, label string) {
	t.Helper()
	check := func(kind, want, got string) {
		t.Helper()
		if want != got {
			t.Fatalf("%s: %s diverged\nflat:\n%s\ntiered:\n%s", label, kind, want, got)
		}
	}
	if f, g := flat.Len(), tiered.Len(); f != g {
		t.Fatalf("%s: Len: flat %d, tiered %d", label, f, g)
	}
	if f, g := cellCount(flat), cellCount(tiered); f != g {
		t.Fatalf("%s: CellCount: flat %d, tiered %d", label, f, g)
	}
	if f, g := latestTime(flat), latestTime(tiered); !f.Equal(g) {
		t.Fatalf("%s: Latest: flat %v, tiered %v", label, f, g)
	}

	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)
	rects := []geo.Rect{
		world,
		geo.RectOf(0, 0, 400, 400),
		geo.RectOf(-120, -80, 130, 90),       // straddles cell boundaries
		geo.RectOf(50, 50, 100, 100),         // exactly cell-aligned
		geo.RectOf(33.3, -17.7, 210.9, 66.1), // cuts through chunk bounds
		geo.RectOf(700, 700, 900, 900),       // mostly empty
	}
	lo, hi := at(-time.Hour), at(24*time.Hour)
	windows := [][2]time.Time{
		{lo, hi},
		{at(0), at(32 * time.Second)}, // seal-granule-aligned long range
		{at(7*time.Second + 300*time.Millisecond), at(55 * time.Second)}, // misaligned, crosses seal frontier
		{at(40 * time.Second), at(41 * time.Second)},                     // short hot-side window
		{at(3 * time.Second), at(3 * time.Second)},                       // instant
		{at(10 * time.Second), at(9 * time.Second)},                      // inverted
	}
	for ri, r := range rects {
		for wi, w := range windows {
			tag := fmt.Sprintf("r%d/w%d", ri, wi)
			check("range "+tag, dumpRecords(flat.RangeQuery(r, w[0], w[1])), dumpRecords(tiered.RangeQuery(r, w[0], w[1])))
			if f, g := flat.Count(r, w[0], w[1]), tiered.Count(r, w[0], w[1]); f != g {
				t.Fatalf("%s: count %s: flat %d, tiered %d", label, tag, f, g)
			}
			check("heat50 "+tag, dumpHeat(flat.Heatmap(r, w[0], w[1], 50, nil)), dumpHeat(tiered.Heatmap(r, w[0], w[1], 50, nil)))
			check("heat35 "+tag, dumpHeat(flat.Heatmap(r, w[0], w[1], 35, nil)), dumpHeat(tiered.Heatmap(r, w[0], w[1], 35, nil)))
		}
	}
	oddCam := func(r Record) bool { return r.Camera%2 == 1 }
	check("heat-keep", dumpHeat(flat.Heatmap(world, lo, hi, 50, oddCam)), dumpHeat(tiered.Heatmap(world, lo, hi, 50, oddCam)))

	for _, q := range []geo.Point{geo.Pt(0, 0), geo.Pt(123, -45), geo.Pt(600, 600)} {
		for _, k := range []int{1, 5, 40} {
			f := flat.KNN(q, lo, at(60*time.Second), k)
			g := tiered.KNN(q, lo, at(60*time.Second), k)
			check(fmt.Sprintf("knn %v k=%d", q, k), dumpNeighbors(f), dumpNeighbors(g))
		}
	}
	fb := flat.KNNBounded(geo.Pt(100, 100), lo, hi, 10, 250*250, oddCam)
	gb := tiered.KNNBounded(geo.Pt(100, 100), lo, hi, 10, 250*250, oddCam)
	check("knn bounded", dumpNeighbors(fb), dumpNeighbors(gb))

	ft, gt := targets(flat), targets(tiered)
	if fmt.Sprint(ft) != fmt.Sprint(gt) {
		t.Fatalf("%s: Targets: flat %v, tiered %v", label, ft, gt)
	}
	for _, id := range ft {
		if f, g := flat.TargetCount(id), tiered.TargetCount(id); f != g {
			t.Fatalf("%s: TargetCount(%d): flat %d, tiered %d", label, id, f, g)
		}
		check(fmt.Sprintf("history %d", id),
			dumpRecords(flat.TargetHistory(id, lo, hi)),
			dumpRecords(tiered.TargetHistory(id, lo, hi)))
		check(fmt.Sprintf("history-window %d", id),
			dumpRecords(flat.TargetHistory(id, at(5*time.Second), at(45*time.Second))),
			dumpRecords(tiered.TargetHistory(id, at(5*time.Second), at(45*time.Second))))
	}
}

func tieredPair() (flat, tiered *Store) {
	flat = NewStore(Config{CellSize: 50, BucketWidth: time.Second, SealHorizon: neverSeal})
	// 500 ms buckets make an 8 s seal granule; 32-record chunks, so
	// workloads span many chunks.
	tiered = withChunkTarget(NewStore(Config{CellSize: 50, BucketWidth: 500 * time.Millisecond, SealHorizon: 10 * time.Second}), 32)
	return flat, tiered
}

// genWorkload produces a deterministic observation stream: mostly advancing
// time with jitter, ~15% late arrivals (up to 30s behind), positions mixing
// grid-snapped and free floats across a few hundred meters.
func genWorkload(rng *rand.Rand, n int) []Record {
	recs := make([]Record, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(40)) * time.Millisecond
		ts := now
		if rng.Intn(100) < 15 {
			late := time.Duration(rng.Intn(30000)) * time.Millisecond
			if late > now {
				late = now
			}
			ts = now - late
		}
		x := rng.Float64()*700 - 150
		y := rng.Float64()*700 - 150
		if rng.Intn(2) == 0 {
			x = math.Round(x*posScale) / posScale
			y = math.Round(y*posScale) / posScale
		}
		recs = append(recs, Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(rng.Intn(9)), // 0 = unassociated
			Camera:   uint32(rng.Intn(16)),
			Pos:      geo.Pt(x, y),
			Time:     at(ts),
		})
	}
	return recs
}

func TestTieredDifferentialSealAndOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	flat, tiered := tieredPair()
	recs := genWorkload(rng, 4000)
	for i, r := range recs {
		flat.Insert(r)
		tiered.Insert(r)
		if (i+1)%500 == 0 {
			tiered.Seal()
			diffBattery(t, flat, tiered, fmt.Sprintf("after %d inserts + seal", i+1))
		}
	}
	tiered.Seal()
	diffBattery(t, flat, tiered, "final")
	if ts := tiered.TierStats(); ts.SealedRecords == 0 || ts.SealedChunks == 0 {
		t.Fatalf("vacuous differential: nothing was sealed (%+v)", ts)
	}
}

func TestTieredDifferentialEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flat, tiered := tieredPair()
	for _, r := range genWorkload(rng, 3000) {
		flat.Insert(r)
		tiered.Insert(r)
	}
	tiered.Seal()
	if ts := tiered.TierStats(); ts.SealedRecords == 0 {
		t.Fatal("vacuous eviction differential: nothing sealed")
	}
	// Evict at cutoffs that land mid-chunk, mid-rollup-bucket, and on exact
	// bucket boundaries; both stores see identical cutoffs.
	cutoffs := []time.Duration{
		3*time.Second + 217*time.Millisecond,
		8 * time.Second, // rollup bucket boundary
		13*time.Second + 999*time.Millisecond,
		24 * time.Second,
	}
	for _, d := range cutoffs {
		fr := flat.EvictBefore(at(d))
		gr := tiered.EvictBefore(at(d))
		if fr != gr {
			t.Fatalf("EvictBefore(%v): flat removed %d, tiered removed %d", d, fr, gr)
		}
		diffBattery(t, flat, tiered, fmt.Sprintf("after evict %v", d))
	}
	// Late re-ingest below the seal frontier, then seal again: straggler
	// compaction must not diverge.
	rng2 := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		r := Record{
			ObsID:    uint64(100000 + i),
			TargetID: uint64(rng2.Intn(9)),
			Camera:   uint32(rng2.Intn(16)),
			Pos:      geo.Pt(rng2.Float64()*700-150, rng2.Float64()*700-150),
			Time:     at(time.Duration(24000+rng2.Intn(20000)) * time.Millisecond),
		}
		flat.Insert(r)
		tiered.Insert(r)
	}
	tiered.Seal()
	diffBattery(t, flat, tiered, "after late re-ingest + re-seal")
	// Evict everything: both must empty out completely.
	if fr, gr := flat.EvictBefore(at(time.Hour)), tiered.EvictBefore(at(time.Hour)); fr != gr {
		t.Fatalf("full evict: flat removed %d, tiered removed %d", fr, gr)
	}
	if tiered.Len() != 0 || cellCount(tiered) != 0 || len(targets(tiered)) != 0 {
		t.Fatalf("tiered store not empty after full evict: len=%d cells=%d targets=%v",
			tiered.Len(), cellCount(tiered), targets(tiered))
	}
	if ts := tiered.TierStats(); ts.SealedChunks != 0 || ts.SealedRecords != 0 || ts.SealedBytes != 0 ||
		ts.IndexBytes != 0 || len(tiered.targetSealed) != 0 {
		t.Fatalf("sealed-tier accounting not empty after full evict: %+v, %d target lists", ts, len(tiered.targetSealed))
	}
}

// TestTieredRollupRouting asserts the decode counter: long-range Count and
// Heatmap queries whose windows cover every sealed chunk are answered from
// chunk counts alone (zero chunk decodes), while RangeQuery must decode.
func TestTieredRollupRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, tiered := tieredPair()
	for _, r := range genWorkload(rng, 3000) {
		tiered.Insert(r)
	}
	tiered.Seal()
	ts0 := tiered.TierStats()
	if ts0.SealedRecords == 0 {
		t.Fatal("nothing sealed")
	}

	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)
	// Long-range window over the whole world: every sealed chunk's span and
	// bounds are covered.
	from, to := at(-8*time.Second), at(64*time.Second-time.Nanosecond)
	n := tiered.Count(world, from, to)
	if n == 0 {
		t.Fatal("long-range count returned 0")
	}
	heat := tiered.Heatmap(world, from, to, 50, nil) // 50 = CellSize
	if len(heat) == 0 {
		t.Fatal("long-range heatmap returned nothing")
	}
	ts1 := tiered.TierStats()
	if d := ts1.QueryDecodes - ts0.QueryDecodes; d != 0 {
		t.Fatalf("covered Count+Heatmap decoded %d chunks, want 0", d)
	}
	if ts1.RollupHits <= ts0.RollupHits {
		t.Fatalf("rollup hits did not advance: %d -> %d", ts0.RollupHits, ts1.RollupHits)
	}

	// RangeQuery materializes records, so it must decode.
	if recs := tiered.RangeQuery(world, from, to); len(recs) != tiered.Len() {
		t.Fatalf("world range = %d records, want %d", len(recs), tiered.Len())
	}
	ts2 := tiered.TierStats()
	if ts2.QueryDecodes == ts1.QueryDecodes {
		t.Fatal("RangeQuery over sealed data decoded no chunks")
	}

	// A misaligned window cuts through chunks that must decode — it must
	// still answer exactly (cross-checked against RangeQuery length).
	mfrom, mto := at(1500*time.Millisecond), at(37*time.Second)
	if c, r := tiered.Count(world, mfrom, mto), tiered.RangeQuery(world, mfrom, mto); c != len(r) {
		t.Fatalf("misaligned count %d != range len %d", c, len(r))
	}
}

// TestChunkSpanWindowNoDecode: a window running from one sealed chunk's first
// record to its last — not aligned to the seal granule — covers that chunk's
// span, so Count and Heatmap take it whole from its count without decoding.
func TestChunkSpanWindowNoDecode(t *testing.T) {
	const width = 8 * time.Second
	s := NewStore(Config{CellSize: 50, BucketWidth: width / rollupBuckets, SealHorizon: 10 * time.Second})
	// One cell, a record every 250 ms starting 300 ms past a seal-granule
	// boundary, sealed up to 10 s before the last: the chunk of the second
	// seal granule starts and ends 50 ms and 200 ms inside it.
	start := time.Unix(0, (floorDiv64(t0.UnixNano(), int64(width))+1)*int64(width))
	var recs []Record
	for i := 0; i < 160; i++ {
		r := Record{ObsID: uint64(i + 1), Pos: geo.Pt(float64(i%40)+0.5, 25), Time: start.Add(300*time.Millisecond + time.Duration(i)*250*time.Millisecond)}
		recs = append(recs, r)
		s.Insert(r)
	}
	s.Seal()
	var from, to time.Time
	want := 0
	for _, r := range recs {
		if d := r.Time.Sub(start); d >= width && d < 2*width {
			if want == 0 {
				from = r.Time
			}
			to = r.Time
			want++
		}
	}
	if from.UnixNano()%int64(width) == 0 || (to.UnixNano()+1)%int64(width) == 0 {
		t.Fatalf("window [%v, %v] is seal-granule-aligned", from, to)
	}
	if ts := s.TierStats(); ts.SealedRecords < 2*want {
		t.Fatalf("second seal granule not sealed: %+v", ts)
	}

	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)
	ts0 := s.TierStats()
	if n := s.Count(world, from, to); n != want {
		t.Fatalf("Count = %d, want %d", n, want)
	}
	heat := s.Heatmap(world, from, to, 50, nil)
	if len(heat) != 1 || heat[0].Count != int64(want) {
		t.Fatalf("Heatmap = %+v, want one cell of %d", heat, want)
	}
	ts1 := s.TierStats()
	if d := ts1.QueryDecodes - ts0.QueryDecodes; d != 0 {
		t.Fatalf("chunk-span Count+Heatmap decoded %d chunks, want 0", d)
	}
	if ts1.RollupHits <= ts0.RollupHits {
		t.Fatalf("RollupHits did not advance: %d -> %d", ts0.RollupHits, ts1.RollupHits)
	}
}

// TestTieredConcurrentSmoke runs concurrent inserts, seals, evictions and
// queries; under -race this doubles as the locking regression for the tiered
// paths.
func TestTieredConcurrentSmoke(t *testing.T) {
	tiered := withChunkTarget(NewStore(Config{
		CellSize:    50,
		BucketWidth: 250 * time.Millisecond, // a 4 s seal granule
		Retention:   20 * time.Second,
		SealHorizon: 5 * time.Second,
	}), 64)
	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for _, r := range genWorkload(rng, 6000) {
			tiered.Insert(r)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				latest := latestTime(tiered)
				tiered.Count(world, at(-time.Hour), latest)
				tiered.RangeQuery(geo.RectOf(0, 0, 300, 300), at(0), latest)
				tiered.KNN(geo.Pt(float64(g*100), 50), at(0), latest, 5)
				tiered.Heatmap(world, at(-time.Hour), latest, 50, nil)
				tiered.TargetHistory(uint64(g+1), at(0), latest)
				tiered.Summarize(200, 8)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tiered.Seal()
			tiered.EvictBefore(latestTime(tiered).Add(-25 * time.Second))
		}
	}()
	wg.Wait()
}

// TestTieredDifferentialSharedStraddler: the per-target index lists shared
// cell chunks, so a chunk that retention trims can stay listed under a target
// whose every record in it sat in the expired prefix. That target has no
// record left: TargetCount is 0 and Targets omits it, as on the flat store.
func TestTieredDifferentialSharedStraddler(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	flat, tiered := tieredPair()
	const early, shared = 1, 2 // target IDs; target 3 also comes later
	var recs []Record
	add := func(target uint64, x, y float64, d time.Duration) {
		recs = append(recs, Record{ObsID: uint64(len(recs) + 1), TargetID: target, Camera: uint32(rng.Intn(4)), Pos: geo.Pt(x, y), Time: at(d)})
	}
	// One cell, one seal granule: the early target's records come
	// first, the others' fill the rest of the bucket.
	for i := 0; i < 5; i++ {
		add(early, rng.Float64()*50, rng.Float64()*50, time.Duration(100+rng.Intn(900))*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		add(uint64(shared+i%2), rng.Float64()*50, rng.Float64()*50, time.Duration(1500+rng.Intn(6000))*time.Millisecond)
	}
	// Later records elsewhere push the seal frontier past the bucket.
	for i := 0; i < 60; i++ {
		add(uint64(rng.Intn(2)*3), 100+rng.Float64()*300, rng.Float64()*300, 8*time.Second+time.Duration(i)*500*time.Millisecond)
	}
	for _, r := range recs {
		flat.Insert(r)
		tiered.Insert(r)
	}
	tiered.Seal()
	cutoff := at(1200 * time.Millisecond) // after every early record, before the shared ones
	if fr, gr := flat.EvictBefore(cutoff), tiered.EvictBefore(cutoff); fr != 5 || gr != 5 {
		t.Fatalf("EvictBefore removed %d flat, %d tiered records, want the early target's 5", fr, gr)
	}
	list := tiered.targetSealed[early]
	if len(list) != 1 || list[0].skip != 5 || list[0].targetCount(shared) == 0 {
		t.Fatalf("vacuous: the early target is not listed under one straddler shared with target %d", shared)
	}
	if n := tiered.TargetCount(early); n != 0 {
		t.Fatalf("TargetCount(%d) = %d, want 0", early, n)
	}
	if ids := targets(tiered); slices.Contains(ids, early) {
		t.Fatalf("Targets() = %v lists target %d", ids, early)
	}
	if h := tiered.TargetHistory(early, at(-time.Hour), at(time.Hour)); len(h) != 0 {
		t.Fatalf("TargetHistory(%d) = %v, want none", early, h)
	}
	diffBattery(t, flat, tiered, "after trimming the early target out of a shared chunk")
	tiered.EvictBefore(at(7600 * time.Millisecond))
	flat.EvictBefore(at(7600 * time.Millisecond))
	if len(tiered.targetSealed[early]) != 0 || len(tiered.targetSealed[shared]) != 0 {
		t.Fatal("the expired straddler stayed listed")
	}
	diffBattery(t, flat, tiered, "after the shared chunk expired")
}

// TestTieredDifferentialSealScratchNoAlias: seals drain, sort and encode
// through scratch the store reuses, so a later seal must not write into an
// earlier seal's chunks. Seal, insert more, seal again: every chunk of the
// first seal keeps its bytes and decodes to the same records, and the store
// still answers as the flat one does.
func TestTieredDifferentialSealScratchNoAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	flat, tiered := tieredPair()
	recs := genWorkload(rng, 4000)
	for _, r := range recs[:2000] {
		flat.Insert(r)
		tiered.Insert(r)
	}
	tiered.Seal()
	type snap struct {
		data    []byte
		decoded string
	}
	first := map[*sealedChunk]snap{}
	for _, c := range sealedChunks(tiered) {
		first[c] = snap{slices.Clone(c.data), dumpRecords(toRecords(c.appendLive(nil)))}
	}
	if len(first) == 0 {
		t.Fatal("vacuous: the first seal made no chunk")
	}
	for _, r := range recs[2000:] {
		flat.Insert(r)
		tiered.Insert(r)
	}
	if tiered.Seal() == 0 {
		t.Fatal("vacuous: the second seal moved no record")
	}
	for c, s := range first {
		if !slices.Equal(c.data, s.data) {
			t.Fatalf("chunk [%d, %d] of the first seal changed its bytes", c.start, c.end)
		}
		if got := dumpRecords(toRecords(c.appendLive(nil))); got != s.decoded {
			t.Fatalf("chunk [%d, %d] of the first seal decodes differently:\n%s\nwant:\n%s", c.start, c.end, got, s.decoded)
		}
	}
	diffBattery(t, flat, tiered, "after the second seal")
}
