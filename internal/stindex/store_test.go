package stindex

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

func rec(obs, target uint64, x, y float64, d time.Duration) Record {
	return Record{ObsID: obs, TargetID: target, Camera: 1, Pos: geo.Pt(x, y), Time: at(d)}
}

func TestStoreInsertAndRange(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	s.Insert(rec(1, 100, 5, 5, 0))
	s.Insert(rec(2, 100, 15, 5, time.Second))
	s.Insert(rec(3, 200, 50, 50, 2*time.Second))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Spatial filter.
	got := s.RangeQuery(geo.RectOf(0, 0, 20, 10), at(0), at(time.Hour))
	if len(got) != 2 || got[0].ObsID != 1 || got[1].ObsID != 2 {
		t.Fatalf("range = %v", got)
	}
	// Temporal filter.
	got = s.RangeQuery(geo.RectOf(0, 0, 100, 100), at(time.Second), at(2*time.Second))
	if len(got) != 2 || got[0].ObsID != 2 || got[1].ObsID != 3 {
		t.Fatalf("time-filtered range = %v", got)
	}
	// Count agrees with RangeQuery.
	if c := s.Count(geo.RectOf(0, 0, 100, 100), at(time.Second), at(2*time.Second)); c != 2 {
		t.Errorf("Count = %d", c)
	}
	// Empty results.
	if got := s.RangeQuery(geo.RectOf(900, 900, 950, 950), at(0), at(time.Hour)); len(got) != 0 {
		t.Errorf("far range = %v", got)
	}
	if got := s.RangeQuery(geo.RectOf(0, 0, 100, 100), at(time.Hour), at(0)); len(got) != 0 {
		t.Errorf("inverted window = %v", got)
	}
	if !s.Latest().Equal(at(2 * time.Second)) {
		t.Errorf("Latest = %v", s.Latest())
	}
}

func TestStoreKNN(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	// A line of observations at x = 0, 10, 20, ..., 90.
	for i := 0; i < 10; i++ {
		s.Insert(rec(uint64(i+1), 0, float64(i*10), 0, time.Duration(i)*time.Second))
	}
	got := s.KNN(geo.Pt(0, 0), at(0), at(time.Hour), 3)
	if len(got) != 3 {
		t.Fatalf("KNN returned %d", len(got))
	}
	wantIDs := []uint64{1, 2, 3}
	for i, n := range got {
		if n.ObsID != wantIDs[i] {
			t.Fatalf("KNN order = %v", got)
		}
	}
	// Time window excludes the nearest observations.
	got = s.KNN(geo.Pt(0, 0), at(5*time.Second), at(time.Hour), 2)
	if len(got) != 2 || got[0].ObsID != 6 || got[1].ObsID != 7 {
		t.Fatalf("time-filtered KNN = %v", got)
	}
	// k = 0 and empty store.
	if got := s.KNN(geo.Pt(0, 0), at(0), at(time.Hour), 0); got != nil {
		t.Errorf("k=0 KNN = %v", got)
	}
	empty := NewStore(Config{})
	if got := empty.KNN(geo.Pt(0, 0), at(0), at(time.Hour), 3); got != nil {
		t.Errorf("empty KNN = %v", got)
	}
}

// TestStoreKNNMatchesBrute is the conformance property: ring-expansion KNN
// with time filtering returns exactly the brute-force answer.
func TestStoreKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStore(Config{CellSize: 25, BucketWidth: 5 * time.Second})
	var all []Record
	for i := 0; i < 2000; i++ {
		r := Record{
			ObsID: uint64(i + 1),
			Pos:   geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Time:  at(time.Duration(rng.Intn(600)) * time.Second),
		}
		s.Insert(r)
		all = append(all, r)
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.Pt(rng.Float64()*1100-50, rng.Float64()*1100-50)
		from := at(time.Duration(rng.Intn(500)) * time.Second)
		to := from.Add(time.Duration(rng.Intn(200)) * time.Second)
		k := 1 + rng.Intn(15)

		type cand struct {
			id uint64
			d2 float64
		}
		var cands []cand
		for _, r := range all {
			if !r.Time.Before(from) && !r.Time.After(to) {
				cands = append(cands, cand{r.ObsID, q.Dist2(r.Pos)})
			}
		}
		// Brute-force top-k.
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if cands[j].d2 < cands[i].d2 || (cands[j].d2 == cands[i].d2 && cands[j].id < cands[i].id) {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
			if i >= k {
				break
			}
		}
		want := k
		if len(cands) < k {
			want = len(cands)
		}
		got := s.KNN(q, from, to, k)
		if len(got) != want {
			t.Fatalf("trial %d: KNN size %d, want %d", trial, len(got), want)
		}
		for i := 0; i < want; i++ {
			if got[i].ObsID != cands[i].id {
				t.Fatalf("trial %d: rank %d = obs %d, want %d", trial, i, got[i].ObsID, cands[i].id)
			}
		}
	}
}

func TestTargetHistoryAndTrajectory(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	// Out-of-order inserts for the same target.
	s.Insert(rec(2, 7, 10, 0, 2*time.Second))
	s.Insert(rec(1, 7, 5, 0, time.Second))
	s.Insert(rec(3, 7, 15, 0, 3*time.Second))
	s.Insert(rec(4, 8, 99, 99, time.Second)) // different target
	s.Insert(rec(5, 0, 50, 50, time.Second)) // unassociated

	hist := s.TargetHistory(7, at(0), at(time.Hour))
	if len(hist) != 3 {
		t.Fatalf("history = %v", hist)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Time.Before(hist[i-1].Time) {
			t.Fatal("history out of order")
		}
	}
	// Window slicing.
	hist = s.TargetHistory(7, at(2*time.Second), at(3*time.Second))
	if len(hist) != 2 || hist[0].ObsID != 2 {
		t.Fatalf("windowed history = %v", hist)
	}
	// Trajectory reconstruction.
	tr := s.Trajectory(7, at(0), at(time.Hour))
	if tr.Len() != 3 {
		t.Fatalf("trajectory len = %d", tr.Len())
	}
	p, err := tr.At(at(1500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.Dist(geo.Pt(7.5, 0)) > 1e-9 {
		t.Errorf("interpolated position = %v", p)
	}
	// Unknown and unassociated targets.
	if got := s.TargetHistory(999, at(0), at(time.Hour)); got != nil {
		t.Errorf("unknown target history = %v", got)
	}
	targets := s.Targets()
	if len(targets) != 2 || targets[0] != 7 || targets[1] != 8 {
		t.Errorf("Targets = %v", targets)
	}
}

// TestHeatmapRejectsNonFiniteCellSize: a NaN cell size keys every record to
// cell (MinInt32, MinInt32) and +Inf folds them all into (0, 0); either
// answer is well-formed, so a cache would keep it. Only a finite, positive
// size may answer.
func TestHeatmapRejectsNonFiniteCellSize(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	for i := 0; i < 10; i++ {
		s.Insert(rec(uint64(i+1), 0, float64(i*7), float64(i*3), time.Duration(i)*time.Second))
	}
	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)
	for _, cs := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		if cells := s.Heatmap(world, at(0), at(time.Hour), cs, nil); cells != nil {
			t.Errorf("Heatmap(cellSize %v) = %+v, want nil", cs, cells)
		}
	}
	if cells := s.Heatmap(world, at(0), at(time.Hour), math.MaxFloat64, nil); len(cells) == 0 {
		t.Error("Heatmap(cellSize MaxFloat64) answered nothing")
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	for i := 0; i < 100; i++ {
		s.Insert(rec(uint64(i+1), 5, float64(i), 0, time.Duration(i)*time.Second))
	}
	removed := s.EvictBefore(at(50 * time.Second))
	if removed != 50 {
		t.Fatalf("evicted %d, want 50", removed)
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.RangeQuery(geo.RectOf(0, -1, 49, 1), at(0), at(time.Hour)); len(got) != 0 {
		t.Errorf("evicted records still visible: %v", got)
	}
	hist := s.TargetHistory(5, at(0), at(time.Hour))
	if len(hist) != 50 || hist[0].ObsID != 51 {
		t.Fatalf("target history after evict: len=%d first=%d", len(hist), hist[0].ObsID)
	}
	// Evict everything: target map must empty out.
	s.EvictBefore(at(time.Hour))
	if s.Len() != 0 || len(s.Targets()) != 0 || s.CellCount() != 0 {
		t.Errorf("store not empty after full evict: len=%d targets=%v cells=%d",
			s.Len(), s.Targets(), s.CellCount())
	}
}

func TestStoreRetentionAuto(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second, Retention: 10 * time.Second})
	for i := 0; i < 100; i++ {
		s.Insert(rec(uint64(i+1), 0, float64(i%7), 0, time.Duration(i)*time.Second))
	}
	// Only ~ the last 10-11 seconds should survive.
	if s.Len() > 15 {
		t.Errorf("retention store holds %d records, want ≈ 11", s.Len())
	}
	got := s.RangeQuery(geo.RectOf(-1, -1, 10, 10), at(0), at(time.Hour))
	for _, r := range got {
		if r.Time.Before(at(89 * time.Second)) {
			t.Errorf("expired record survived: %v", r)
		}
	}
}

func TestStoreConcurrentReadsAndWrites(t *testing.T) {
	s := NewStore(Config{CellSize: 10, BucketWidth: time.Second})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.Insert(rec(uint64(i+1), uint64(i%10), float64(i%100), float64(i%50), time.Duration(i)*time.Millisecond))
		}
	}()
	for i := 0; i < 200; i++ {
		s.RangeQuery(geo.RectOf(0, 0, 100, 100), at(0), at(time.Hour))
		s.KNN(geo.Pt(50, 25), at(0), at(time.Hour), 5)
		s.TargetHistory(3, at(0), at(time.Hour))
	}
	<-done
	if s.Len() != 2000 {
		t.Errorf("Len = %d", s.Len())
	}
}
