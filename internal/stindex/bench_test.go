package stindex

import (
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

// Micro-benchmarks for the per-worker store hot paths. The macro experiment
// suite (R1/R2) measures these through the full distributed stack; these
// isolate the index itself.

func storeWith(n int) (*Store, *rand.Rand) {
	s := NewStore(Config{CellSize: 50, BucketWidth: 10 * time.Second})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		s.Insert(Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(i%500 + 1),
			Pos:      geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
			Time:     t0.Add(time.Duration(i) * 10 * time.Millisecond),
		})
	}
	return s, rng
}

func BenchmarkStoreInsert(b *testing.B) {
	s := NewStore(Config{CellSize: 50, BucketWidth: 10 * time.Second})
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(i%500 + 1),
			Pos:      geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
			Time:     t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
}

func BenchmarkStoreRange(b *testing.B) {
	s, rng := storeWith(100000)
	from, to := t0, t0.Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		s.RangeQuery(geo.RectAround(c, 100), from, to)
	}
}

func BenchmarkStoreKNN(b *testing.B) {
	s, rng := storeWith(100000)
	from, to := t0, t0.Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KNN(geo.Pt(rng.Float64()*2000, rng.Float64()*2000), from, to, 10)
	}
}

func BenchmarkStoreHeatmap(b *testing.B) {
	s, _ := storeWith(100000)
	from, to := t0, t0.Add(time.Hour)
	world := geo.RectOf(0, 0, 2000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Heatmap(world, from, to, 100, nil)
	}
}

// scanStore is shaped like one worker's store in the end-to-end benchmark's
// query.scan workload: 50 m cells over a 2 km world, 30 k records over 300 s,
// sealed up to a 2 min horizon so ~40 % stay hot and ~60 % are sealed.
func scanStore(b testing.TB) *Store {
	s := NewStore(Config{CellSize: 50, SealHorizon: 2 * time.Minute})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		s.Insert(Record{
			ObsID:    uint64(i + 1),
			TargetID: uint64(i%400 + 1),
			Camera:   uint32(i % 64),
			Pos:      geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
			Time:     t0.Add(time.Duration(i) * 10 * time.Millisecond),
		})
	}
	s.Seal()
	if ts := s.TierStats(); ts.SealedRecords < 15000 || ts.SealedRecords > 21000 {
		b.Fatalf("sealed %d of 30000 records, want ~60 %%", ts.SealedRecords)
	}
	return s
}

var (
	scanWorld        = geo.RectOf(0, 0, 2000, 2000)
	scanFrom, scanTo = t0.Add(-time.Hour), t0.Add(1000 * time.Hour)
	scanSinkHeat     []HeatCell
	scanSinkCount    int
	scanSinkRecs     []Record
	scanSinkNear     []Neighbor
)

func scanSquare(rng *rand.Rand, side float64) geo.Rect {
	x, y := rng.Float64()*(2000-side), rng.Float64()*(2000-side)
	return geo.RectOf(x, y, x+side, y+side)
}

// BenchmarkScanHeatmap is query.scan's heatmap: the whole world at the
// store's cell size over a window covering everything.
func BenchmarkScanHeatmap(b *testing.B) {
	s := scanStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSinkHeat = s.Heatmap(scanWorld, scanFrom, scanTo, 50, nil)
	}
}

// BenchmarkScanCount is query.scan's count: a 400 m square over a window
// covering everything.
func BenchmarkScanCount(b *testing.B) {
	s := scanStore(b)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSinkCount = s.Count(scanSquare(rng, 400), scanFrom, scanTo)
	}
}

// BenchmarkScanRangeWide is query.scan's range_wide: a 1 km square over a
// window covering everything, materialized and ordered.
func BenchmarkScanRangeWide(b *testing.B) {
	s := scanStore(b)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSinkRecs = s.RangeQuery(scanSquare(rng, 1000), scanFrom, scanTo)
	}
}

// BenchmarkScanKNN is query.scan's kNN: the 10 records nearest a random point
// over the last 2 min of the stream.
func BenchmarkScanKNN(b *testing.B) {
	s := scanStore(b)
	rng := rand.New(rand.NewSource(4))
	from, to := t0.Add(180*time.Second), t0.Add(300*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSinkNear = s.KNN(geo.Pt(rng.Float64()*2000, rng.Float64()*2000), from, to, 10)
	}
}

// BenchmarkTargetHistory is a trajectory read on the query.scan store shape:
// one of its 400 targets' whole history, 75 records spread over every cell
// chunk that holds one of them.
func BenchmarkTargetHistory(b *testing.B) {
	s := scanStore(b)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanSinkRecs = s.TargetHistory(uint64(rng.Intn(400)+1), scanFrom, scanTo)
	}
}

// tickStream is a camera stream of perTick detections per 1 s tick, uniform
// over a square world of the given side, all of a tick stamped at its frame
// time. Record i is the same on every call with the same arguments.
type tickStream struct {
	rng          *rand.Rand
	perTick      int
	side         float64
	next         int
	targetsEvery int      // every n-th record carries a TargetID; 0 = none
	tick         []Record // insertTicks scratch: one tick's records
}

func newTickStream(seed int64, perTick int, side float64) *tickStream {
	return &tickStream{rng: rand.New(rand.NewSource(seed)), perTick: perTick, side: side}
}

func (st *tickStream) record() Record {
	i := st.next
	st.next++
	r := Record{
		ObsID:  uint64(i + 1),
		Camera: uint32(i % 64),
		Pos:    geo.Pt(st.rng.Float64()*st.side, st.rng.Float64()*st.side),
		Time:   t0.Add(time.Duration(i/st.perTick) * time.Second),
	}
	if st.targetsEvery > 0 && i%st.targetsEvery == 0 {
		r.TargetID = uint64(i/st.targetsEvery%300 + 1)
	}
	return r
}

// insertTicks inserts the stream's next n ticks into s, one Insert call per
// tick, as a worker indexes one ingest batch.
func (st *tickStream) insertTicks(s *Store, n int) {
	for ; n > 0; n-- {
		st.insertRecords(s, st.perTick)
	}
}

// insertRecords inserts the stream's next n records into s in one call.
func (st *tickStream) insertRecords(s *Store, n int) {
	st.tick = st.tick[:0]
	for ; n > 0; n-- {
		st.tick = append(st.tick, st.record())
	}
	s.Insert(st.tick...)
}

// BenchmarkInsertAtRetention prices one record insert on a store shaped like
// one ingest.plain worker at its retention bound: 50 m cells over a 2 km
// world, 200 detections per 1 s tick, Retention 10 min and SealHorizon 2 min,
// pre-aged past retention so that every tick seals, trims and expires as at
// steady state. /record inserts one record per call; /tick inserts a whole
// tick per call, as the worker indexes an ingest batch. Both report ns per
// record.
func BenchmarkInsertAtRetention(b *testing.B) {
	atRetention := func() (*Store, *tickStream) {
		s := NewStore(Config{CellSize: 50, Retention: 10 * time.Minute, SealHorizon: 2 * time.Minute})
		st := newTickStream(1, 200, 2000)
		st.insertTicks(s, 11*60)
		return s, st
	}
	b.Run("record", func(b *testing.B) {
		s, st := atRetention()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(st.record())
		}
	})
	b.Run("tick", func(b *testing.B) {
		s, st := atRetention()
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += st.perTick {
			st.insertRecords(s, min(st.perTick, b.N-done))
		}
	})
}
