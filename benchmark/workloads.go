package main

import (
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
)

// Frozen shape of the system under test and of the generated input. These
// were calibrated once on the 2-core reference host; changing any of them
// changes what every recorded number means, so a later change that claims a
// gain may not touch this file.
const (
	numWorkers   = 4
	camsPerSide  = 16
	worldSide    = 2000.0
	baseObjects  = 400
	baseTicks    = 300
	featureDim   = 32
	heartbeat    = 200 * time.Millisecond
	pipelineDeep = 4

	// defaultSeconds is the timed window when -seconds is not given; it is
	// BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// setupRepeats is how many times a run sets the cluster up; setup_s is
	// the median, so one slow boot does not set it.
	setupRepeats = 3

	// Query mix of query.scan: slots per cycle of 50 queries (50 % range,
	// 20 % knn, 14 % count, 14 % heatmap, 2 % range_wide).
	mixRange, mixKNN, mixCount, mixHeatmap, mixRangeWide = 25, 10, 7, 7, 1
	// oracleEvery checks every n-th query.scan answer against the brute-force
	// reference (n = 16 → 6.25 % of answers).
	oracleEvery = 16

	// mixed.storm: one featured tick is due every stormPeriod.
	stormPeriod      = 100 * time.Millisecond
	stormSubscribers = 16

	// Traced pass: operations replayed one at a time per kind. The kinds that
	// cost milliseconds per level — heatmap, range_wide, and the storm's
	// proxied featured tick, which takes three ticks per traced op — get a
	// smaller sample so the pass stays within a few seconds.
	tracedPerKind    = 200
	tracedHeatmap    = 40
	tracedWide       = 6
	tracedStormTicks = 40
)

// clusterOptions is the one production-shaped configuration every workload
// runs: tiered store with both tiers live, bounded retention, everything
// else default.
func clusterOptions() core.Options {
	return core.Options{CellSize: 50, Retention: 10 * time.Minute, SealHorizon: 2 * time.Minute}
}

// workload describes one traffic mix. opWindow is the width of the windows
// the windowed figures (throughput, op_p50_ms, op_p95w_ms) are medians over; heapAt is the
// point (in passes over the base trace) at which an ingest workload measures
// live_heap_mb, so the figure compares equal stored state whatever the speed.
type workload struct {
	name     string
	why      string
	featured bool
	preload  bool
	opWindow time.Duration
	heapAt   float64
	run      func(*env, *workload, config, *result)
	traced   func(*env, *workload, config, *result) (*tracer, error)
}

func workloads() []*workload {
	return []*workload{
		{
			name:     "ingest.plain",
			why:      "feature-less detections streamed worker-direct: wire, cluster TCP and stindex insert/seal/evict do all the work; vision, proxy and serve do none",
			opWindow: time.Second, heapAt: 3,
			run: runIngest, traced: traceIngest,
		},
		{
			name:     "ingest.feat",
			why:      "same stream and path with 32-d features: vision.Associator under the worker lock dominates, codec and socket gains barely move it",
			featured: true, opWindow: time.Second, heapAt: 0.5,
			run: runIngest, traced: traceIngest,
		},
		{
			name:    "query.scan",
			why:     "read-only distinct Range/kNN/Count/Heatmap shapes that always miss the cache: core scatter/merge and stindex hot, sealed and rollup paths do the work",
			preload: true, opWindow: time.Second,
			run: runQueries, traced: traceQueries,
		},
		{
			name:     "mixed.storm",
			why:      "open-loop featured ingest through the coordinator proxy beside cache-hit queries and 16 polled subscribers: shows a gain for writes that costs reads",
			featured: true, opWindow: 2 * time.Second,
			run: runStorm, traced: traceStorm,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stormFences are the four geofences the 16 subscribers share, four each.
var stormFences = []geo.Rect{
	geo.RectOf(200, 200, 700, 700),
	geo.RectOf(1100, 300, 1700, 800),
	geo.RectOf(400, 1200, 900, 1800),
	geo.RectOf(1000, 1000, 1600, 1600),
}
