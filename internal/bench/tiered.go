package bench

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"stcam/internal/geo"
	"stcam/internal/stindex"
)

// R17 prices the tiered track-history store (DESIGN.md §storage): how many
// bytes one retained observation costs in the flat in-memory store versus the
// sealed delta-compressed tier, and whether long-range aggregate queries are
// really answered from sealed chunk counts alone. Three machine-robust
// headline columns feed the CI gate:
//
//   - "sealed B/obs": bytes per sealed observation — its one encoded copy in
//     a cell chunk plus the per-target index entries pointing at that chunk —
//     read off the store's own byte accounting; deterministic for a fixed
//     stream, gated with an absolute ceiling.
//   - "retention×": flat live-heap B/obs ÷ sealed B/obs — how many times more
//     history fits in the same memory once it seals. The paper-level claim is
//     ≥5×; the gate floors it there.
//   - "rollup-only": fraction of seal-granule-aligned long-range
//     Count+Heatmap queries that complete with zero chunk decodes (measured
//     via the store's decode counter). Must stay at 1.0 — any regression
//     that makes aggregates fall back to decoding chunks collapses it.
//
// Flat B/obs is a post-GC HeapAlloc delta around building the flat store, a
// store whose seal horizon outlasts the stream so every record stays hot:
// live bytes, not allocation churn, since retention is about what stays
// resident. The latency columns are informative only (host-dependent).

const (
	r17BucketWidth = time.Second
	r17RollupWidth = 16 * r17BucketWidth // the store's seal granule
	r17SealHorizon = 30 * time.Second
	// r17FlatHorizon outlasts every R17 stream, so the reference store keeps
	// all its records in the hot tier.
	r17FlatHorizon = 24 * time.Hour
)

// r17Stream generates a deterministic multi-target walker stream: fixed
// cadence, positions snapped to a 1/1024 m grid (cameras report quantized
// coordinates), modest per-step movement — the shape sealed chunks exist to
// compress. Starts on a rollup-width-aligned instant so aggregate windows can
// be constructed bucket-aligned.
func r17Stream(n int) []stindex.Record {
	rng := rand.New(rand.NewSource(29))
	const walkers = 24
	xs, ys := make([]float64, walkers), make([]float64, walkers)
	for i := range xs {
		xs[i] = math.Round(rng.Float64()*1000*1024) / 1024
		ys[i] = math.Round(rng.Float64()*1000*1024) / 1024
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) // UnixNano divisible by r17RollupWidth
	recs := make([]stindex.Record, n)
	for i := 0; i < n; i++ {
		k := i % walkers
		xs[k] += math.Round((rng.Float64()*2-1)*1.5*1024) / 1024
		ys[k] += math.Round((rng.Float64()*2-1)*1.5*1024) / 1024
		recs[i] = stindex.Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(k + 1),
			Camera:   uint32(k % 16),
			Pos:      geo.Pt(xs[k], ys[k]),
			Time:     start.Add(time.Duration(i) * 25 * time.Millisecond),
		}
	}
	return recs
}

func r17Config(sealed bool) stindex.Config {
	c := stindex.Config{CellSize: 50, BucketWidth: r17BucketWidth, SealHorizon: r17FlatHorizon}
	if sealed {
		c.SealHorizon = r17SealHorizon
	}
	return c
}

// r17FlatBytes builds a flat store from the stream and returns its live heap
// cost per record: post-GC HeapAlloc delta divided by n.
func r17FlatBytes(recs []stindex.Record) float64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	flat := stindex.NewStore(r17Config(false))
	for _, r := range recs {
		flat.Insert(r)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(flat)
	if m1.HeapAlloc <= m0.HeapAlloc {
		return 0
	}
	return float64(m1.HeapAlloc-m0.HeapAlloc) / float64(len(recs))
}

// R17TieredStorage reports per-observation storage cost for the flat vs
// sealed tier and verifies decode-free aggregates, over two stream sizes.
func R17TieredStorage(s Scale) *Table {
	t := &Table{
		ID:     "R17",
		Title:  "Tiered track history: sealed-chunk compression and rollup routing",
		Notes:  "walker stream, 25ms cadence, grid-snapped positions; sealed B/obs includes the per-target index (24 B per chunk-target entry); rollup-only = aggregate queries with zero chunk decodes",
		Header: []string{"events", "sealed frac", "flat B/obs", "sealed B/obs", "retention×", "rollup-only", "count(rollup)", "count(decode)"},
	}
	world := geo.RectOf(-1e4, -1e4, 2e4, 2e4)
	for _, base := range []int{40000, 120000} {
		n := s.n(base)
		recs := r17Stream(n)
		flatBytes := r17FlatBytes(recs)

		tiered := stindex.NewStore(r17Config(true))
		for _, r := range recs {
			tiered.Insert(r)
		}
		tiered.Seal()
		ts := tiered.TierStats()
		if ts.SealedRecords == 0 {
			panic("bench: R17 stream too short to seal anything")
		}
		sealedFrac := float64(ts.SealedRecords) / float64(n)
		// Each observation is sealed once, in its cell's chunk, and found by
		// target through the per-target index, whose entries are charged
		// too; the flat store holds two copies (cell bucket + byTarget slice).
		// Both sides price everything that keeps a record queryable by place
		// and by target.
		sealedBytes := float64(ts.SealedBytes+ts.IndexBytes) / float64(ts.SealedRecords)
		retentionX := 0.0
		if sealedBytes > 0 {
			retentionX = flatBytes / sealedBytes
		}

		// Long-range Count+Heatmap over seal-granule-aligned windows cover
		// every chunk they touch whole, so must not decode a single one.
		start := recs[0].Time.Truncate(r17RollupWidth)
		sealedSpan := recs[ts.SealedRecords-1].Time.Sub(start)
		lastFull := int(sealedSpan / r17RollupWidth) // buckets [0, lastFull) fully sealed
		rollupOnly, aggregates := 0, 0
		for i := 0; i < lastFull; i++ {
			from := start.Add(time.Duration(i) * r17RollupWidth)
			to := start.Add(time.Duration(lastFull) * r17RollupWidth).Add(-time.Nanosecond)
			d0 := tiered.TierStats().QueryDecodes
			tiered.Count(world, from, to)
			tiered.Heatmap(world, from, to, 50, nil)
			if tiered.TierStats().QueryDecodes == d0 {
				rollupOnly++
			}
			aggregates++
		}
		frac := 0.0
		if aggregates > 0 {
			frac = float64(rollupOnly) / float64(aggregates)
		}

		// Informative latencies: the same long-range count from chunk counts
		// vs a misaligned window that forces the chunks it cuts to decode.
		alignedFrom := start
		alignedTo := start.Add(time.Duration(lastFull) * r17RollupWidth).Add(-time.Nanosecond)
		iters := 50
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			tiered.Count(world, alignedFrom, alignedTo)
		}
		rollupNs := time.Since(t0) / time.Duration(iters)
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			tiered.Count(world, alignedFrom.Add(500*time.Millisecond), alignedTo.Add(-500*time.Millisecond))
		}
		decodeNs := time.Since(t0) / time.Duration(iters)

		t.AddRow(n, sealedFrac, flatBytes, sealedBytes, retentionX, frac, rollupNs, decodeNs)
	}
	return t
}
