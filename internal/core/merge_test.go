package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/wire"
)

// rangeDecoded is RangeMeta with the answer decoded, for tests that inspect
// the records.
func rangeDecoded(c *Coordinator, rect geo.Rect, window wire.TimeWindow, limit int) ([]wire.ResultRecord, QueryMeta, error) {
	enc, meta, err := c.RangeMeta(ctx, rect, window, limit)
	if err != nil {
		return nil, meta, err
	}
	recs, err := enc.Decode()
	return recs, meta, err
}

// mergeSortedRecords is the reference merge the coordinator ran on decoded
// records before answers were merged as bytes: a k-way merge of per-worker
// lists sorted by (Time, ObsID), stopping at limit (0 = no limit).
func mergeSortedRecords(lists [][]wire.ResultRecord, limit int) []wire.ResultRecord {
	live := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if limit > 0 && limit < total {
		total = limit
	}
	if len(live) == 1 {
		return live[0][:total:total]
	}
	m := recMerge{lists: live, heads: make([]int, len(live))}
	for i := range live {
		m.h = append(m.h, i)
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	out := make([]wire.ResultRecord, 0, total)
	for len(m.h) > 0 && len(out) < total {
		top := m.h[0]
		out = append(out, m.lists[top][m.heads[top]])
		m.heads[top]++
		if m.heads[top] == len(m.lists[top]) {
			m.h[0] = m.h[len(m.h)-1]
			m.h = m.h[:len(m.h)-1]
		}
		m.down(0)
	}
	return out
}

// recMerge is the reference merge's min-heap of list indices keyed on each
// list's head record.
type recMerge struct {
	lists [][]wire.ResultRecord
	heads []int
	h     []int
}

func (m *recMerge) less(a, b int) bool {
	ra, rb := m.lists[a][m.heads[a]], m.lists[b][m.heads[b]]
	if !ra.Time.Equal(rb.Time) {
		return ra.Time.Before(rb.Time)
	}
	return ra.ObsID < rb.ObsID
}

func (m *recMerge) down(i int) {
	n := len(m.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(m.h[l], m.h[smallest]) {
			smallest = l
		}
		if r < n && m.less(m.h[r], m.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.h[i], m.h[smallest] = m.h[smallest], m.h[i]
		i = smallest
	}
}

// mergeTimes are the record times the differential draws from: a few shared
// instants (so timestamps tie within and across workers), the zero Time,
// instants before 1678 and after 2262, and equal seconds with different
// nanoseconds.
var mergeTimes = []time.Time{
	{},
	time.Date(1500, 6, 1, 0, 0, 0, 0, time.UTC),
	time.Date(1677, 1, 1, 0, 0, 0, 999, time.UTC),
	simT0,
	simT0.Add(time.Nanosecond),
	simT0.Add(time.Second),
	simT0.Add(time.Second + 1),
	simT0.Add(time.Hour),
	time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2300, 1, 1, 0, 0, 0, 1, time.UTC),
}

// seededParts builds per-worker answers in the order workers return them:
// each sorted by (Time, ObsID), ObsIDs distinct across workers, some parts
// empty, positions including NaN and -0.
func seededParts(rng *rand.Rand, workers, maxLen int) [][]wire.ResultRecord {
	parts := make([][]wire.ResultRecord, workers)
	obs := uint64(rng.Intn(3))
	for w := range parts {
		n := rng.Intn(maxLen + 1)
		if rng.Intn(4) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			obs += uint64(1 + rng.Intn(2))
			pos := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
			switch rng.Intn(8) {
			case 0:
				pos.X = math.NaN()
			case 1:
				pos.Y = math.Copysign(0, -1)
			}
			parts[w] = append(parts[w], wire.ResultRecord{
				ObsID: obs, TargetID: uint64(rng.Intn(3)), Camera: uint32(rng.Intn(9)),
				Pos: pos, Time: mergeTimes[rng.Intn(len(mergeTimes))],
			})
		}
		sort.Slice(parts[w], func(i, j int) bool {
			a, b := parts[w][i], parts[w][j]
			if !a.Time.Equal(b.Time) {
				return a.Time.Before(b.Time)
			}
			return a.ObsID < b.ObsID
		})
	}
	return parts
}

// partsOverWire encodes each part as a worker does and decodes it as the
// coordinator does, through a RangePart frame.
func partsOverWire(t testing.TB, parts [][]wire.ResultRecord) []*wire.RecordBlock {
	out := make([]*wire.RecordBlock, len(parts))
	for i, p := range parts {
		var sent wire.RangePart
		for j := range p {
			sent.Records.Append(&p[j])
		}
		body, err := wire.Marshal(wire.KindRangePart, &sent)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.Unmarshal(wire.KindRangePart, body)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &got.(*wire.RangePart).Records
	}
	return out
}

// TestMergePartsMatchesReference is the differential for the byte merge: the
// client frame built from the merged bytes is byte-identical to the frame of
// the reference merge over the decoded parts, for every limit from none to
// past the total, and the cut flag is exact.
func TestMergePartsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 300; round++ {
		parts := seededParts(rng, 1+rng.Intn(5), 12)
		blocks := partsOverWire(t, parts)
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		k := 1 + rng.Intn(total+1)
		for _, limit := range []int{0, 1, k, total, total + 1} {
			enc, cut := mergeParts(blocks, limit)
			got, err := wire.Marshal(wire.KindRangeResult, &wire.RangeResult{QueryID: 7, Encoded: enc, Truncated: cut, Asked: 4, Answered: 4})
			if err != nil {
				t.Fatal(err)
			}
			ref := mergeSortedRecords(parts, limit)
			wantCut := limit > 0 && limit < total
			want, err := wire.Marshal(wire.KindRangeResult, &wire.RangeResult{QueryID: 7, Records: ref, Truncated: wantCut, Asked: 4, Answered: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d limit %d of %d: byte merge differs from the reference merge\n got  %x\n want %x", round, limit, total, got, want)
			}
			if cut != wantCut {
				t.Fatalf("round %d limit %d of %d: cut = %v", round, limit, total, cut)
			}
		}
	}
}

// TestMergePartsAllocsIndependentOfN: merging 4 parts allocates a constant
// number of objects however many records they hold. GC is held off during
// the measurement: a cycle started by the large case's output buffer would
// otherwise land inside the AllocsPerRun window and add to its count.
func TestMergePartsAllocsIndependentOfN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		parts := make([][]wire.ResultRecord, 4)
		for w := range parts {
			for i := 0; i < n; i++ {
				parts[w] = append(parts[w], wire.ResultRecord{ObsID: uint64(i*4 + w), Time: simT0.Add(time.Duration(i) * time.Millisecond), Pos: geo.Pt(rng.Float64(), 1)})
			}
		}
		blocks := partsOverWire(t, parts)
		return testing.AllocsPerRun(5, func() { mergeParts(blocks, 0) })
	}
	small, large := allocs(100), allocs(20000)
	if small != large || large > 4 {
		t.Fatalf("merge allocates %.0f objects for 4×100 records and %.0f for 4×20000, want the same small constant", small, large)
	}
}

// tcpTestCluster boots a coordinator and n workers on loopback TCP, each node
// on its own transport, with Transport a separate client transport.
func tcpTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	coordTr := cluster.NewTCP()
	t.Cleanup(func() { coordTr.Close() })
	coord := NewCoordinator("127.0.0.1:0", coordTr, nil, Options{})
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	c := &Cluster{Coordinator: coord, Transport: cluster.NewTCP()}
	t.Cleanup(func() { c.Transport.Close() })
	for i := 0; i < n; i++ {
		tr := cluster.NewTCP()
		t.Cleanup(func() { tr.Close() })
		w := NewWorker(wire.NodeID(fmt.Sprintf("tcp-w%d", i+1)), "127.0.0.1:0", coord.Addr(), tr, Options{})
		if err := w.Start(ctx); err != nil {
			t.Fatal(err)
		}
		c.Workers = append(c.Workers, w)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestRangeLimitReportsTruncated is the regression for limited range and
// filter answers that never reported truncation: a client sending Limit must
// see Truncated exactly when the answer was cut — by a worker's own limit or
// by the coordinator's merge — both in process and over TCP.
func TestRangeLimitReportsTruncated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Cluster
	}{
		{"InProc", func(t *testing.T) *Cluster { return newTestCluster(t, 3, Options{}) }},
		{"TCP", func(t *testing.T) *Cluster {
			if testing.Short() {
				t.Skip("TCP cluster skipped in -short mode")
			}
			return tcpTestCluster(t, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
				t.Fatal(err)
			}
			const total = 30
			var obs []wire.Observation
			for i := 0; i < total; i++ {
				cam := uint32(1 + i%9)
				cell := float64(cam - 1)
				p := geo.Pt(float64(int(cell)%3)*333+100+float64(i), float64(int(cell)/3)*333+100)
				obs = append(obs, obsAt(uint64(i+1), cam, p, simT0.Add(time.Duration(i)*time.Second), nil))
			}
			if got := ingestDirect(t, c, obs...); got != total {
				t.Fatalf("ingested %d, want %d", got, total)
			}
			window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
			corner := geo.RectOf(0, 0, 300, 300) // camera 1's 4 records, all on one worker
			for _, q := range []struct {
				rect         geo.Rect
				limit, total int
			}{
				{world1, 0, total},
				{world1, 5, total},         // cut inside every worker
				{world1, total - 1, total}, // cut only by the merge
				{world1, total, total},
				{world1, total + 1, total},
				{corner, 2, 4}, // cut only by the one worker that answers
				{corner, 4, 4},
			} {
				resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.RangeQuery{QueryID: 1, Rect: q.rect, Window: window, Limit: q.limit})
				if err != nil {
					t.Fatal(err)
				}
				rr := resp.(*wire.RangeResult)
				want := q.total
				if q.limit > 0 && q.limit < q.total {
					want = q.limit
				}
				if got := len(rr.Records) + rr.Encoded.N; got != want {
					t.Fatalf("%v limit %d: %d records, want %d", q.rect, q.limit, got, want)
				}
				if wantCut := want < q.total; rr.Truncated != wantCut {
					t.Errorf("%v limit %d: Truncated = %v, want %v", q.rect, q.limit, rr.Truncated, wantCut)
				}
				if _, meta, err := c.Coordinator.RangeMeta(ctx, q.rect, window, q.limit); err != nil || meta.Truncated != (want < q.total) {
					t.Errorf("%v limit %d: RangeMeta Truncated = %v (%v), want %v", q.rect, q.limit, meta.Truncated, err, want < q.total)
				}
				fq := wire.FilterQuery{QueryID: 1, Rect: q.rect, Window: window, Limit: q.limit}
				resp, err = c.Transport.Call(ctx, c.Coordinator.Addr(), &fq)
				if err != nil {
					t.Fatal(err)
				}
				fr := resp.(*wire.FilterResult)
				if len(fr.Records) != want {
					t.Fatalf("%v limit %d: filter %d records, want %d", q.rect, q.limit, len(fr.Records), want)
				}
				if wantCut := want < q.total; fr.Truncated != wantCut {
					t.Errorf("%v limit %d: filter Truncated = %v, want %v", q.rect, q.limit, fr.Truncated, wantCut)
				}
				if _, _, meta, err := c.Coordinator.Filter(ctx, fq); err != nil || meta.Truncated != (want < q.total) {
					t.Errorf("%v limit %d: Filter Truncated = %v (%v), want %v", q.rect, q.limit, meta.Truncated, err, want < q.total)
				}
			}
		})
	}
}

// BenchmarkRangeMerge prices the coordinator's hop of a wide range answer:
// four workers' 24 k-record RangePart payloads decoded, merged, sized for the
// cache and encoded as the client's RangeResult.
func BenchmarkRangeMerge(b *testing.B) {
	const workers, perWorker = 4, 24000
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, workers)
	for w := range frames {
		var part wire.RangePart
		for i := 0; i < perWorker; i++ {
			part.Records.Append(&wire.ResultRecord{
				ObsID: uint64(i*workers + w + 1), TargetID: uint64(rng.Intn(400)), Camera: uint32(rng.Intn(64)),
				Pos:  geo.Pt(rng.Float64()*2000, rng.Float64()*2000),
				Time: simT0.Add(time.Duration(i*workers+w) * 2500 * time.Microsecond),
			})
		}
		var err error
		if frames[w], err = wire.Marshal(wire.KindRangePart, &part); err != nil {
			b.Fatal(err)
		}
	}
	parts := make([]*wire.RecordBlock, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w, f := range frames {
			msg, err := wire.Unmarshal(wire.KindRangePart, f)
			if err != nil {
				b.Fatal(err)
			}
			parts[w] = &msg.(*wire.RangePart).Records
		}
		enc, cut := mergeParts(parts, 0)
		res := &wire.RangeResult{QueryID: 1, Encoded: enc, Truncated: cut, Asked: workers, Answered: workers}
		if _, err := wire.EncodedLen(wire.KindRangeResult, res); err != nil {
			b.Fatal(err)
		}
		buf := wire.BorrowBuf()
		out, err := wire.AppendMarshal(buf.B[:0], wire.KindRangeResult, res)
		if err != nil {
			b.Fatal(err)
		}
		buf.B = out
		buf.Release()
	}
}
