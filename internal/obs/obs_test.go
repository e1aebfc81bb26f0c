package obs

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/metrics"
	"stcam/internal/serve"
	"stcam/internal/wire"
)

var ctx = context.Background()

// scrape fetches a path from the test server and returns body and status.
func scrape(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[^}]*\} [0-9eE+.-]+$`)

func TestMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("ingest.accepted").Add(42)
	reg.Gauge("tracks.resident").Set(7)
	h := reg.Histogram("rpc.call.Heartbeat")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	snap := reg.Snapshot()

	srv := httptest.NewServer(NewMux(Options{Node: "w01", Snapshot: reg.Snapshot}))
	defer srv.Close()
	body, status := scrape(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}

	// Every non-comment line must parse as a sample.
	samples := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		samples[line[:sp]] = line[sp+1:]
	}

	if got := samples[`stcam_ingest_accepted{node="w01"}`]; got != "42" {
		t.Errorf("counter sample = %q, want 42", got)
	}
	if got := samples[`stcam_tracks_resident{node="w01"}`]; got != "7" {
		t.Errorf("gauge sample = %q, want 7", got)
	}
	hs := snap.Histograms["rpc.call.Heartbeat"]
	if got := samples[`stcam_rpc_call_Heartbeat_seconds_count{node="w01"}`]; got != strconv.FormatInt(hs.Count, 10) {
		t.Errorf("_count = %q, want %d", got, hs.Count)
	}
	wantSum := strconv.FormatFloat(hs.Sum.Seconds(), 'g', -1, 64)
	if got := samples[`stcam_rpc_call_Heartbeat_seconds_sum{node="w01"}`]; got != wantSum {
		t.Errorf("_sum = %q, want %s", got, wantSum)
	}

	// Buckets: cumulative counts, non-decreasing with ascending le, ending at
	// +Inf == _count.
	type bkt struct {
		le    float64
		count int64
	}
	var buckets []bkt
	for key, val := range samples {
		if !strings.HasPrefix(key, `stcam_rpc_call_Heartbeat_seconds_bucket{`) {
			continue
		}
		leStr := key[strings.Index(key, `le="`)+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le := inf(t, leStr)
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket count %q: %v", val, err)
		}
		buckets = append(buckets, bkt{le, n})
	}
	if len(buckets) < 3 {
		t.Fatalf("only %d buckets exposed", len(buckets))
	}
	for i := range buckets {
		for j := range buckets {
			if buckets[i].le < buckets[j].le && buckets[i].count > buckets[j].count {
				t.Fatalf("bucket counts not cumulative: le=%g count=%d vs le=%g count=%d",
					buckets[i].le, buckets[i].count, buckets[j].le, buckets[j].count)
			}
		}
	}
	var last bkt
	for _, b := range buckets {
		if b.le >= last.le {
			last = b
		}
	}
	if last.count != hs.Count {
		t.Errorf("+Inf bucket = %d, want %d", last.count, hs.Count)
	}
}

func inf(t *testing.T, s string) float64 {
	t.Helper()
	if s == "+Inf" {
		return 1e308
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("le %q: %v", s, err)
	}
	return v
}

func TestHealthAndReadyProbes(t *testing.T) {
	var notReady atomic.Bool
	srv := httptest.NewServer(NewMux(Options{
		Node:     "n1",
		Snapshot: metrics.NewRegistry().Snapshot,
		Ready: func() error {
			if notReady.Load() {
				return errors.New("draining")
			}
			return nil
		},
	}))
	defer srv.Close()

	if _, status := scrape(t, srv.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz status %d", status)
	}
	if _, status := scrape(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz status %d while ready", status)
	}
	notReady.Store(true)
	if body, status := scrape(t, srv.URL+"/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz = (%d, %q), want 503 with reason", status, body)
	}
	notReady.Store(false)
	if _, status := scrape(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz did not recover")
	}
	// pprof index is mounted.
	if _, status := scrape(t, srv.URL+"/debug/pprof/"); status != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", status)
	}
}

// TestReadyzTracksClusterMembership wires the coordinator's quorum probe into
// /readyz and watches it flip as a worker dies and re-registers.
func TestReadyzTracksClusterMembership(t *testing.T) {
	opts := core.Options{HeartbeatTimeout: 50 * time.Millisecond}
	faulty := cluster.NewFaulty(cluster.NewInProc(), 1)
	c, err := core.NewLocalClusterOver(faulty, 2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	srv := httptest.NewServer(NewMux(Options{
		Node:     "coordinator",
		Snapshot: c.Coordinator.StatsSnapshot,
		Ready:    c.Coordinator.Ready,
	}))
	defer srv.Close()

	if body, status := scrape(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz = (%d, %q) with full membership", status, body)
	}

	// Kill one of two workers: quorum (strict majority) is lost.
	dead := c.Workers[0]
	faulty.SetPartitioned(dead.Addr(), true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.Workers[1].SendHeartbeat(ctx) //nolint:errcheck // best-effort in test loop
		if died := c.Coordinator.Sweep(ctx, time.Now()); len(died) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if body, status := scrape(t, srv.URL+"/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "quorum") {
		t.Fatalf("/readyz = (%d, %q) after worker death, want 503 quorum", status, body)
	}

	// The worker comes back and heartbeats: readiness recovers.
	faulty.SetPartitioned(dead.Addr(), false)
	if err := dead.SendHeartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if body, status := scrape(t, srv.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz = (%d, %q) after re-registration", status, body)
	}

	// The worker-side probe: a live cluster member is ready; a worker that
	// never registered is not.
	if err := c.Workers[1].Ready(); err != nil {
		t.Errorf("registered worker not ready: %v", err)
	}
	stray := core.NewWorker(wire.NodeID("w99"), "worker-99", "coord", c.Transport, opts)
	if err := stray.Ready(); err == nil {
		t.Error("unregistered worker reports ready")
	}

	// The coordinator's exposition now carries the rpc.serve histograms the
	// cluster traffic above populated.
	body, _ := scrape(t, srv.URL+"/metrics")
	if !strings.Contains(body, "stcam_rpc_serve_Heartbeat_seconds_count") {
		t.Errorf("coordinator /metrics missing rpc.serve.Heartbeat histogram:\n%s", firstLines(body, 20))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestServingPlaneMetricsExposition attaches the serving plane to a live
// coordinator and asserts its serve.* series render through /metrics with the
// values the traffic produced: a repeated Count query leaves exactly one
// cache miss and one hit, and a live subscription shows in the subscribers
// gauge and drops back to zero after unsubscribe.
func TestServingPlaneMetricsExposition(t *testing.T) {
	c, err := core.NewLocalCluster(1, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	omni := []wire.CameraInfo{{ID: 1, Pos: geo.Pt(500, 500), HalfFOV: math.Pi, Range: 1000}}
	if err := c.Coordinator.AddCameras(ctx, omni, 50); err != nil {
		t.Fatal(err)
	}
	serve.New(c.Coordinator, serve.Options{CacheTTL: time.Hour})

	srv := httptest.NewServer(NewMux(Options{Node: "coord", Snapshot: c.Coordinator.StatsSnapshot}))
	defer srv.Close()

	q := &wire.CountQuery{
		Rect:   geo.RectOf(0, 0, 1000, 1000),
		Window: wire.TimeWindow{From: time.Unix(0, 0).UTC(), To: time.Unix(4e9, 0).UTC()},
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Transport.Call(ctx, c.Coordinator.Addr(), q); err != nil {
			t.Fatalf("count query %d: %v", i, err)
		}
	}
	resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(),
		&wire.Subscribe{Kind: wire.ContinuousRange, Rect: geo.RectOf(0, 0, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	ack := resp.(*wire.SubscribeAck)

	body, status := scrape(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for name, want := range map[string]string{
		"stcam_serve_cache_misses":  "1",
		"stcam_serve_cache_hits":    "1",
		"stcam_serve_cache_entries": "1",
		"stcam_serve_subscribers":   "1",
	} {
		sample := name + `{node="coord"} ` + want
		if !strings.Contains(body, sample) {
			t.Errorf("exposition missing %q", sample)
		}
	}
	// The cache-bytes gauge carries the (non-zero) cost of the cached answer.
	if strings.Contains(body, `stcam_serve_cache_bytes{node="coord"} 0`) ||
		!strings.Contains(body, "stcam_serve_cache_bytes") {
		t.Errorf("serve.cache.bytes gauge missing or zero after a cached answer:\n%s", firstLines(body, 30))
	}

	if _, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Unsubscribe{SubID: ack.SubID}); err != nil {
		t.Fatal(err)
	}
	body, _ = scrape(t, srv.URL+"/metrics")
	if !strings.Contains(body, `stcam_serve_subscribers{node="coord"} 0`) {
		t.Errorf("subscribers gauge did not return to 0 after unsubscribe:\n%s", firstLines(body, 30))
	}
}

// TestFailoverTelemetryExposition locks the exposition names of the
// control-plane HA telemetry: the failover counter, the cumulative
// leaderless-outage clock, and the worker-side deferred-push queue depth.
func TestFailoverTelemetryExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("failover.total").Inc()
	reg.Counter("leaderless.seconds").Add(2)
	reg.Gauge("handoff.queue_depth").Set(5)

	srv := httptest.NewServer(NewMux(Options{Node: "c2", Snapshot: reg.Snapshot}))
	defer srv.Close()
	body, status := scrape(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for name, want := range map[string]string{
		"stcam_failover_total":      "1",
		"stcam_leaderless_seconds":  "2",
		"stcam_handoff_queue_depth": "5",
	} {
		sample := name + `{node="c2"} ` + want
		if !strings.Contains(body, sample) {
			t.Errorf("exposition missing %q:\n%s", sample, firstLines(body, 30))
		}
	}
}
