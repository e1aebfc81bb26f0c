package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 6 {
		t.Errorf("Value = %d, want 6", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("Value = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("Value = %d, want 6", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms .. 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	// Bucketed quantiles have bounded relative error (~19%).
	checks := []struct {
		name      string
		got, want time.Duration
	}{
		{"P50", s.P50, 50 * time.Millisecond},
		{"P95", s.P95, 95 * time.Millisecond},
		{"P99", s.P99, 99 * time.Millisecond},
	}
	for _, c := range checks {
		relErr := math.Abs(float64(c.got-c.want)) / float64(c.want)
		if relErr > 0.25 {
			t.Errorf("%s = %v, want ≈ %v (relErr %.2f)", c.name, c.got, c.want, relErr)
		}
	}
	if s.Min != time.Millisecond {
		t.Errorf("Min = %v, want exact min", s.Min)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want exact max", s.Max)
	}
	mean := s.Mean
	if mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Errorf("Mean = %v, want ≈ 50.5ms", mean)
	}
}

func TestHistogramSnapshotMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles not monotone: %v", s)
	}
	if s.Count != 1000 {
		t.Errorf("Count = %d", s.Count)
	}
}

// TestHistogramQuantileEnvelope is the regression property test for the
// percentile-clamping bug: on low-count histograms the bucket-midpoint
// estimate could fall outside [Min, Max] (Snapshot clamped P50 only from
// below and P95/P99 only from above), so reported percentiles violated
// min ≤ p50 ≤ p95 ≤ p99 ≤ max.
func TestHistogramQuantileEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			// Log-uniform over ~1µs .. ~1000s to hit many buckets.
			d := time.Duration(math.Exp(rng.Float64()*20) * float64(time.Microsecond))
			h.Observe(d)
		}
		s := h.Snapshot()
		if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("trial %d (n=%d): percentiles escape envelope: %v", trial, n, s)
		}
	}
}

func TestHistogramSnapshotBuckets(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if len(s.Buckets) == 0 {
		t.Fatal("no buckets in snapshot")
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Le <= s.Buckets[i-1].Le {
			t.Fatalf("bucket bounds not increasing: %v", s.Buckets)
		}
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Fatalf("bucket counts not cumulative: %v", s.Buckets)
		}
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Count != s.Count {
		t.Errorf("last bucket count = %d, want total %d", last.Count, s.Count)
	}
	if s.Sum != h.sum {
		t.Errorf("Sum = %v, want %v", s.Sum, h.sum)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatal("negative observation dropped")
	}
	if s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("negative clamped to min %v, max %v, p99 %v, want 0", s.Min, s.Max, s.P99)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Hour * 100) // beyond the last bucket
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatal("observations lost")
	}
	if s.Max != 100*time.Hour {
		t.Errorf("Max = %v", s.Max)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= 500; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 2000 {
		t.Errorf("Count = %d, want 2000", got)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Mark(10)
	m.Mark(20)
	if m.count != 30 {
		t.Errorf("count = %d", m.count)
	}
	if m.Rate() <= 0 {
		t.Error("Rate should be positive after marks")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest.events").Add(7)
	r.Counter("ingest.events").Add(3) // same counter
	r.Gauge("workers.live").Set(4)
	r.Histogram("query.latency").Observe(time.Millisecond)

	s := r.Snapshot()
	if s.Counters["ingest.events"] != 10 {
		t.Errorf("counter = %d", s.Counters["ingest.events"])
	}
	if s.Gauges["workers.live"] != 4 {
		t.Errorf("gauge = %d", s.Gauges["workers.live"])
	}
	if s.Histograms["query.latency"].Count != 1 {
		t.Errorf("histogram count = %d", s.Histograms["query.latency"].Count)
	}
}

func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 800 {
		t.Errorf("shared counter = %d, want 800", got)
	}
}
