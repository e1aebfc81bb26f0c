// Package metrics provides the lightweight instrumentation used across the
// framework: atomic counters and gauges, a log-scale latency histogram with
// percentile queries, and throughput meters. All types are safe for
// concurrent use; reads take consistent snapshots.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records durations in exponential buckets (factor √2 starting at
// 1µs); Snapshot answers percentiles from the bucket midpoints. Memory is
// constant; relative error per observation is bounded by the bucket factor
// (≈ ±19%), ample for latency reporting.
type Histogram struct {
	mu      sync.Mutex
	buckets [nBuckets]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	nBuckets    = 96
	histBase    = float64(time.Microsecond)
	histFactorL = 0.5 * math.Ln2 // log of √2
)

func bucketFor(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	i := int(math.Log(float64(d)/histBase)/histFactorL) + 1
	if i < 0 {
		i = 0
	}
	if i >= nBuckets {
		i = nBuckets - 1
	}
	return i
}

// bucketMid returns the representative duration for bucket i.
func bucketMid(i int) time.Duration {
	if i == 0 {
		return 500 * time.Nanosecond
	}
	lo := histBase * math.Exp(float64(i-1)*histFactorL)
	hi := histBase * math.Exp(float64(i)*histFactorL)
	return time.Duration((lo + hi) / 2)
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(histBase * math.Exp(float64(i)*histFactorL))
}

// clampDur limits d to [lo, hi].
func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(d)]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Snapshot returns a consistent summary.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	buckets := h.buckets
	count, sum, min, max := h.count, h.sum, h.min, h.max
	h.mu.Unlock()

	s := HistSnapshot{Count: count, Min: min, Max: max, Sum: sum}
	if count == 0 {
		return s
	}
	s.Mean = sum / time.Duration(count)
	for _, q := range []struct {
		q   float64
		dst *time.Duration
	}{{0.5, &s.P50}, {0.95, &s.P95}, {0.99, &s.P99}} {
		target := int64(q.q * float64(count))
		if target >= count {
			target = count - 1
		}
		var cum int64
		for i, c := range buckets {
			cum += c
			if cum > target {
				// Clamp to the exact envelope on both sides: bucket midpoints
				// over- or under-shoot the true value by up to the bucket
				// factor, which would let percentiles escape [min, max] (and
				// violate P50 ≤ P95 ≤ P99) on low-count histograms.
				*q.dst = clampDur(bucketMid(i), min, max)
				break
			}
		}
	}
	var cum int64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		cum += c
		s.Buckets = append(s.Buckets, HistBucket{Le: bucketUpper(i), Count: cum})
	}
	return s
}

// HistBucket is one non-empty exponential bucket: Count observations were
// ≤ Le, cumulatively (Prometheus `le` semantics).
type HistBucket struct {
	Le    time.Duration
	Count int64
}

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count          int64
	Sum            time.Duration
	Min, Max, Mean time.Duration
	P50, P95, P99  time.Duration
	// Buckets holds the non-empty buckets with cumulative counts,
	// in increasing Le order. The last entry's Count equals Count.
	Buckets []HistBucket
}

// String implements fmt.Stringer.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p95=%v p99=%v max=%v mean=%v",
		s.Count, s.Min, s.P50, s.P95, s.P99, s.Max, s.Mean)
}

// Meter measures event throughput over a window.
type Meter struct {
	mu    sync.Mutex
	count int64
	start time.Time
}

// NewMeter returns a meter whose window starts now.
func NewMeter() *Meter { return &Meter{start: time.Now()} }

// Mark records n events.
func (m *Meter) Mark(n int64) {
	m.mu.Lock()
	m.count += n
	m.mu.Unlock()
}

// Rate returns events per second since the window start.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.count) / el
}

// Registry is a named collection of metrics, used by workers to expose their
// instrumentation to the coordinator's stats endpoint.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns all counter and gauge values plus histogram summaries,
// with deterministic key order for stable output.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.histograms)),
	}
	for k, c := range r.counters {
		out.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		out.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		out.Histograms[k] = h.Snapshot()
	}
	return out
}

// RegistrySnapshot is a point-in-time view of a Registry.
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}
