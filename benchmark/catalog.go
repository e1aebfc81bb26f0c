package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; the tests hold the two in
// step. bound is the share of the parent's median by which an end-to-end
// metric may get worse before a change counts as a regression.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEndDefs are the gated metrics. Every workload reports every one:
//
//   - throughput: work completed per second of the timed window — detections
//     accepted per second on the ingest workloads and on mixed.storm (where
//     it is the offered load for as long as the cluster keeps up), queries
//     per second on query.scan.
//   - op_p50_ms, op_p95w_ms: latency of the workload's primary request — one
//     coalesced per-worker ingest batch (send → ack) on the ingest workloads,
//     one proxied featured tick (due time → ack) on mixed.storm; on
//     query.scan the median is over range queries and the tail over the four
//     narrow kinds (range/knn/count/heatmap).
//
// Each is a median across slices of the timed window (see lats.windows). The
// timing bounds are the contract's widest: on the shared 2-core reference host
// the same binary and seed drift by a fifth between quiet and busy periods
// (README.md, "Measured on the reference host"), and a tighter bound would
// reject unchanged code.
var endToEndDefs = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_p95w_ms", "ms", false, 0.25},
	{"live_heap_mb", "MiB", false, 0.15},
}

// perLayerDefs are the traced-pass metrics, one or more per module. A metric
// whose layer does no work on a workload reads 0 there.
var perLayerDefs = []metricDef{
	{name: "wire.encode_us", unit: "us"},
	{name: "wire.decode_us", unit: "us"},
	{name: "wire.bytes_per_msg", unit: "B"},
	{name: "wire.allocs_per_roundtrip", unit: "count"},
	{name: "cluster.rtt_us", unit: "us"},
	{name: "cluster.self_us", unit: "us"},
	{name: "cluster.resilient_overhead_us", unit: "us"},
	{name: "cluster.calls_per_op", unit: "count"},
	{name: "cluster.retries", unit: "count"},
	{name: "cluster.errors", unit: "count"},
	{name: "vision.associate_us", unit: "us"},
	{name: "vision.gallery_size", unit: "count"},
	{name: "stindex.insert_us", unit: "us"},
	{name: "stindex.range_us", unit: "us"},
	{name: "stindex.knn_us", unit: "us"},
	{name: "stindex.count_us", unit: "us"},
	{name: "stindex.heatmap_us", unit: "us"},
	{name: "stindex.decodes_per_query", unit: "count"},
	{name: "stindex.rollup_hit_ratio", unit: "ratio", higher: true},
	{name: "stindex.sealed_bytes_per_obs", unit: "B"},
	{name: "core.worker_ingest_us", unit: "us"},
	{name: "core.worker_query_us", unit: "us"},
	{name: "core.worker_self_us", unit: "us"},
	{name: "core.worker_rpc_mean_us", unit: "us"},
	{name: "core.scatter_us", unit: "us"},
	{name: "core.asked_per_query", unit: "count"},
	{name: "core.pruned_per_query", unit: "count", higher: true},
	{name: "core.proxy_ingest_us", unit: "us"},
	{name: "serve.hit_us", unit: "us"},
	{name: "serve.miss_overhead_us", unit: "us"},
	{name: "serve.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "serve.shed", unit: "count"},
	{name: "serve.poll_us", unit: "us"},
	{name: "serve.updates_per_poll", unit: "count"},
	{name: "serve.sub_dropped", unit: "count"},
	{name: "contention_us", unit: "us"},
	{name: "trace.e2e_p50_us", unit: "us"},
	{name: "trace.residual_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

// trajectoryRow is one host-fingerprinted suite run in BENCH_E2E.json.
type trajectoryRow struct {
	When      string              `json:"when"`
	Commit    string              `json:"commit"`
	GOOS      string              `json:"goos"`
	GOARCH    string              `json:"goarch"`
	NumCPU    int                 `json:"num_cpu"`
	GoVersion string              `json:"go_version"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Workloads map[string][]metric `json:"workloads"`
}

// appendTrajectory adds this suite run to the trajectory file.
func appendTrajectory(path string, cfg config, rs []*result) error {
	var rows []trajectoryRow
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rows); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	row := trajectoryRow{
		When: time.Now().UTC().Format(time.RFC3339), Commit: commit(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string][]metric{},
	}
	for _, r := range rs {
		row.Workloads[r.workload] = append(append(append([]metric(nil), r.endToEnd...), r.diags...), r.layers...)
	}
	out, err := json.MarshalIndent(append(rows, row), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from when the build
// recorded one (go build does, go run does not), else the checkout's HEAD.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
