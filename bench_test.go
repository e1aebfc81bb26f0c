package stcam

// This file maps every reconstructed experiment (DESIGN.md §3) to a testing.B
// target, so `go test -bench=.` regenerates the full evaluation. Each bench
// runs its experiment at a CI-friendly scale and reports the table through
// the benchmark log; `cmd/stcam-bench` runs the same experiments at full
// scale. Custom metrics surface the headline number of each experiment so
// -benchmem output is comparable across runs.

import (
	"strconv"
	"strings"
	"testing"

	"stcam/internal/bench"
)

// benchScale keeps `go test -bench=.` under a few minutes; stcam-bench
// defaults to 1.0.
const benchScale = bench.Scale(0.15)

func runExperiment(b *testing.B, run func(bench.Scale) *bench.Table) *bench.Table {
	b.Helper()
	var tbl *bench.Table
	for i := 0; i < b.N; i++ {
		tbl = run(benchScale)
	}
	b.Log("\n" + tbl.String())
	return tbl
}

// cell parses a numeric table cell, tolerating suffixed strings.
func cell(tbl *bench.Table, row, col int) float64 {
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		return 0
	}
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkR1Ingest(b *testing.B) {
	tbl := runExperiment(b, bench.R1Ingest)
	// Headline: distributed events/second at the largest worker count.
	b.ReportMetric(cell(tbl, len(tbl.Rows)-1, 2), "events/s")
}

func BenchmarkR2QueryLatency(b *testing.B) {
	tbl := runExperiment(b, bench.R2QueryLatency)
	_ = tbl
}

func BenchmarkR3Handoff(b *testing.B) {
	tbl := runExperiment(b, bench.R3Handoff)
	// Headline: primes per begun handoff for scoped (row 0) vs broadcast (row 1).
	b.ReportMetric(cell(tbl, 0, 4), "scoped-primes/handoff")
	b.ReportMetric(cell(tbl, 1, 4), "broadcast-primes/handoff")
}

func BenchmarkR4Reid(b *testing.B) {
	tbl := runExperiment(b, bench.R4Reid)
	b.ReportMetric(cell(tbl, 0, 2), "rank1-clean")
}

func BenchmarkR5Balance(b *testing.B) {
	tbl := runExperiment(b, bench.R5Balance)
	b.ReportMetric(cell(tbl, 0, 5), "spatial-imbalance")
	b.ReportMetric(cell(tbl, 1, 5), "hash-imbalance")
}

func BenchmarkR7Continuous(b *testing.B) {
	tbl := runExperiment(b, bench.R7Continuous)
	b.ReportMetric(cell(tbl, len(tbl.Rows)-1, 3), "ns/event-max-queries")
}

func BenchmarkR8Failover(b *testing.B) {
	runExperiment(b, bench.R8Failover)
}

func BenchmarkR9Retention(b *testing.B) {
	runExperiment(b, bench.R9Retention)
}

func BenchmarkR10Crossover(b *testing.B) {
	runExperiment(b, bench.R10Crossover)
}

func BenchmarkR12Trajectory(b *testing.B) {
	tbl := runExperiment(b, bench.R12Trajectory)
	b.ReportMetric(cell(tbl, 0, 4), "clean-mean-err-m")
}

func BenchmarkR14FaultSweep(b *testing.B) {
	tbl := runExperiment(b, bench.R14FaultSweep)
	// Headline: availability at 30% drop, resilience off (row 2) vs on (row 3).
	b.ReportMetric(cell(tbl, 2, 3), "avail-30drop-off")
	b.ReportMetric(cell(tbl, 3, 3), "avail-30drop-on")
}

func BenchmarkR15IngestPipeline(b *testing.B) {
	tbl := runExperiment(b, bench.R15IngestPipeline)
	// Headline: single-worker pipelined ev/s at batch 256, depth 4 (row 5)
	// and its serial baseline, the pair the ≥2× claim is about.
	b.ReportMetric(cell(tbl, 5, 4), "pipelined-ev/s")
	b.ReportMetric(cell(tbl, 5, 3), "serial-ev/s")
}

func BenchmarkR16ScatterPruning(b *testing.B) {
	tbl := runExperiment(b, bench.R16ScatterPruning)
	// Headline: workers asked per kNN at the largest cluster, broadcast
	// (second-to-last row) vs pruned (last row).
	b.ReportMetric(cell(tbl, len(tbl.Rows)-2, 2), "broadcast-asked/knn")
	b.ReportMetric(cell(tbl, len(tbl.Rows)-1, 2), "pruned-asked/knn")
}

func BenchmarkR17TieredStorage(b *testing.B) {
	tbl := runExperiment(b, bench.R17TieredStorage)
	// Headline: retention multiplier and sealed bytes/observation at the
	// largest stream — the numbers the CI gate floors and ceilings.
	last := len(tbl.Rows) - 1
	b.ReportMetric(cell(tbl, last, 4), "retention-x")
	b.ReportMetric(cell(tbl, last, 3), "sealed-B/obs")
}

func BenchmarkR20CodecAlloc(b *testing.B) {
	tbl := runExperiment(b, bench.R20CodecAlloc)
	// Headline: pooled allocs/op for both hot-path messages (col 7) — the
	// numbers the CI gate holds under its absolute ceiling.
	b.ReportMetric(cell(tbl, 0, 7), "ingest-pooled-allocs/op")
	b.ReportMetric(cell(tbl, 1, 7), "range-pooled-allocs/op")
}

func BenchmarkR21Serving(b *testing.B) {
	tbl := runExperiment(b, bench.R21Serving)
	// Headline: shared-vs-per-sub delivery speedup and cache hit ratio on
	// the shared row (row 1) — the pair the serving-plane gate floors.
	if len(tbl.Rows) > 1 {
		if v, err := strconv.ParseFloat(tbl.Rows[1][5], 64); err == nil {
			b.ReportMetric(v, "shared-speedup-x")
		}
		if v, err := strconv.ParseFloat(tbl.Rows[1][6], 64); err == nil {
			b.ReportMetric(v, "cache-hit-ratio")
		}
	}
}

func BenchmarkR23Association(b *testing.B) {
	tbl := runExperiment(b, bench.R23Association)
	// Headline: dense-vs-sort speedup and match-path allocs/op at the
	// end-to-end benchmark's gallery shape (row 0) — the pair the gate holds.
	b.ReportMetric(cell(tbl, 0, 4), "assoc-speedup-x")
	b.ReportMetric(cell(tbl, 0, 5), "assoc-allocs/op")
}

func BenchmarkR13Planner(b *testing.B) {
	tbl := runExperiment(b, bench.R13Planner)
	// Headline: forced-spatial slowdown relative to adaptive (row 0, col 4
	// like "142.2x") — parse the leading float.
	if len(tbl.Rows) > 0 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[0][4], "x"), 64)
		if err == nil {
			b.ReportMetric(v, "forced-spatial-slowdown")
		}
	}
}
