package stindex

import (
	"sync"
	"testing"
	"time"

	"stcam/internal/geo"
)

// TestInsertEvictionAtomicity is the regression for the insert/evict race:
// Insert used to release the store lock after adding a record and then call
// EvictBefore separately, so a concurrent reader could observe the advanced
// Latest() while expired records were still present. Eviction now runs inside
// the same critical section, so any reader snapshot satisfies the retention
// invariant: no record is older than Latest()-Retention at the moment Latest
// was read. Run with -race; pre-fix this fails on the invariant check.
func TestInsertEvictionAtomicity(t *testing.T) {
	const retention = 500 * time.Millisecond
	s := NewStore(Config{CellSize: 50, BucketWidth: 100 * time.Millisecond, Retention: retention})
	world := geo.RectOf(-1e6, -1e6, 1e6, 1e6)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 5000; i++ {
			s.Insert(Record{
				ObsID:    uint64(i + 1),
				TargetID: uint64(i%7 + 1),
				Camera:   uint32(i % 4),
				Pos:      geo.Pt(float64(i%100), float64(i%37)),
				Time:     at(time.Duration(i) * time.Millisecond),
			})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				latest := latestTime(s)
				if latest.IsZero() {
					continue
				}
				floor := latest.Add(-retention)
				for _, r := range s.RangeQuery(world, at(-time.Hour), latest.Add(time.Hour)) {
					// Eviction after the Latest() snapshot only removes
					// records, and inserts only advance time, so every
					// visible record must respect the snapshot's floor.
					if r.Time.Before(floor) {
						t.Errorf("saw record at %v with Latest=%v: older than retention floor %v",
							r.Time, latest, floor)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvictionOnLateStream is the regression for cadence-based eviction:
// opportunistic eviction used to fire only when an insert advanced Latest, so
// a stream of late/replayed records (all behind the watermark, all already
// expired) accumulated without bound; a later count-based cadence still let
// up to 256 of them stay visible. A record already expired on arrival is now
// dropped, so the store holds only the live record.
func TestEvictionOnLateStream(t *testing.T) {
	s := NewStore(Config{CellSize: 50, BucketWidth: time.Second, Retention: 10 * time.Second})
	// One advancing insert establishes Latest = 100s, so everything at 50s is
	// expired on arrival.
	s.Insert(Record{ObsID: 1, TargetID: 1, Camera: 1, Pos: geo.Pt(0, 0), Time: at(100 * time.Second)})
	for i := 0; i < 5000; i++ {
		s.Insert(Record{
			ObsID:    uint64(i + 2),
			TargetID: uint64(i%5 + 1),
			Camera:   2,
			Pos:      geo.Pt(float64(i%200), float64(i%200)),
			Time:     at(50 * time.Second), // never advances Latest
		})
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("late-only stream left %d records, want only the live one", n)
	}
	if got := s.Count(geo.RectOf(-1e6, -1e6, 1e6, 1e6), at(0), at(60*time.Second)); got != 0 {
		t.Fatalf("expired records still queryable: %d", got)
	}
	if got := s.TargetCount(2); got != 0 {
		t.Fatalf("expired records still in a target history: %d", got)
	}
}

// Same scenario through the tiered store: late records below the seal
// frontier must not pile up either in the hot tier or as sealed chunks.
func TestEvictionOnLateStreamTiered(t *testing.T) {
	s := NewStore(Config{
		CellSize:    50,
		BucketWidth: 250 * time.Millisecond, // a 4 s seal granule
		Retention:   10 * time.Second,
		SealHorizon: 5 * time.Second,
	})
	s.Insert(Record{ObsID: 1, TargetID: 1, Camera: 1, Pos: geo.Pt(0, 0), Time: at(100 * time.Second)})
	for i := 0; i < 5000; i++ {
		s.Insert(Record{
			ObsID:    uint64(i + 2),
			TargetID: uint64(i%5 + 1),
			Camera:   2,
			Pos:      geo.Pt(float64(i%200), float64(i%200)),
			Time:     at(50 * time.Second),
		})
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("late-only stream left %d records in tiered store, want 1", n)
	}
}

// TestExpiredOnArrivalNeverVisible: a record that arrives already older than
// Latest − Retention is never visible, not even until the next eviction.
func TestExpiredOnArrivalNeverVisible(t *testing.T) {
	for _, cfg := range []Config{
		{CellSize: 50, BucketWidth: time.Second, Retention: 10 * time.Second, SealHorizon: neverSeal},
		{CellSize: 50, BucketWidth: time.Second, Retention: 10 * time.Second, SealHorizon: 5 * time.Second},
	} {
		s := NewStore(cfg)
		s.Insert(Record{ObsID: 1, Pos: geo.Pt(500, 500), Time: at(100 * time.Second)})
		late := Record{ObsID: 2, TargetID: 7, Pos: geo.Pt(10, 10), Time: at(50 * time.Second)}
		s.Insert(late)
		r, from, to := geo.RectAround(late.Pos, 5), at(40*time.Second), at(60*time.Second)
		if n := s.Count(r, from, to); n != 0 {
			t.Fatalf("%+v: Count over the expired record's window = %d, want 0", cfg, n)
		}
		if recs := s.RangeQuery(r, from, to); len(recs) != 0 {
			t.Fatalf("%+v: RangeQuery over the expired record's window = %v, want none", cfg, recs)
		}
		if n := s.Len(); n != 1 {
			t.Fatalf("%+v: Len = %d, want 1", cfg, n)
		}
	}
}
