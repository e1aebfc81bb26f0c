package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
)

// R14FaultSweep measures query availability and latency under injected link
// faults, with the resilience layer off (single attempt) vs on (retry with
// backoff). One worker's link drops a swept fraction of calls; every query
// fans out over it. Expected shape: without retries, availability falls
// roughly linearly with the drop rate (any dropped sub-query makes the answer
// partial) while latency stays flat; with retries, availability returns to
// ~1.0 at the cost of a longer tail (P99 absorbs the backoff of the retried
// calls).
func R14FaultSweep(s Scale) *Table {
	t := &Table{
		ID:     "R14",
		Title:  "Query availability under injected faults (4 workers)",
		Notes:  "one of four workers behind a lossy link; availability = fraction of queries with complete answers",
		Header: []string{"drop", "resilience", "queries", "availability", "p50", "p99"},
	}
	wl := makeWorkload(8, s.n(200), s.n(30), 21)
	queries := s.n(150)
	for _, drop := range []float64{0.1, 0.3, 0.5} {
		for _, resilient := range []bool{false, true} {
			avail, p50, p99 := r14Cell(wl, queries, drop, resilient)
			mode := "off"
			if resilient {
				mode = "on"
			}
			t.AddRow(
				fmt.Sprintf("%.0f%%", drop*100), mode, queries,
				fmt.Sprintf("%.3f", avail),
				p50.Round(10*time.Microsecond), p99.Round(10*time.Microsecond),
			)
		}
	}
	return t
}

// r14Cell runs one sweep cell: a fresh cluster over a seeded Faulty link,
// the shared workload, and `queries` full-world range queries against it.
func r14Cell(wl *workload, queries int, drop float64, resilient bool) (avail float64, p50, p99 time.Duration) {
	ctx := context.Background()
	opts := core.Options{
		CellSize: 50,
		// The sweep isolates retry behaviour; circuit breaking is disabled so
		// a run of unlucky drops cannot blackhole the lossy link entirely.
		RetryPolicy: cluster.Policy{MaxAttempts: 1, PerAttemptTimeout: 50 * time.Millisecond, FailureThreshold: -1},
	}
	if resilient {
		opts.RetryPolicy = cluster.Policy{
			MaxAttempts:       4,
			PerAttemptTimeout: 50 * time.Millisecond,
			BaseBackoff:       time.Millisecond,
			MaxBackoff:        10 * time.Millisecond,
			FailureThreshold:  -1,
		}
	}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 14)
	c, err := core.NewLocalClusterOver(faulty, 4, nil, opts)
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
		panic(err)
	}
	ingestAll(ctx, c, wl)
	// Fault the first worker's link only after the data is loaded, so every
	// cell queries the same stored records.
	faulty.SetProgram(c.Workers[0].Addr(), cluster.FaultProgram{Drop: drop})

	window := fullWindow(wl)
	lats := make([]time.Duration, 0, queries)
	complete := 0
	for i := 0; i < queries; i++ {
		// Full-world queries: every one fans out over the lossy link.
		start := time.Now()
		_, meta, err := c.Coordinator.RangeMeta(ctx, wl.world, window, 0)
		lats = append(lats, time.Since(start))
		if err == nil && meta.Completeness() == 1.0 {
			complete++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return float64(complete) / float64(queries), percentile(lats, 0.50), percentile(lats, 0.99)
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
