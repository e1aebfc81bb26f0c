package stindex

import (
	"math/rand"
	"testing"
	"time"

	"stcam/internal/geo"
)

// checkHotCell asserts the hot cell's structural invariants: buckets strictly
// ascending and non-empty, every record in the bucket its time maps to and
// inside the bucket's bounds, and the cell's length the sum of its buckets.
func checkHotCell(t *testing.T, c *hotCell) {
	t.Helper()
	n := 0
	for i, hb := range c.buckets {
		if len(hb.recs) == 0 {
			t.Fatalf("bucket %d is empty", hb.idx)
		}
		if i > 0 && hb.idx <= c.buckets[i-1].idx {
			t.Fatalf("buckets out of order: %d after %d", hb.idx, c.buckets[i-1].idx)
		}
		for _, rec := range hb.recs {
			if b := floorDiv64(rec.Time.UnixNano(), c.width); b != hb.idx {
				t.Fatalf("record at %v in bucket %d, belongs in %d", rec.Time, hb.idx, b)
			}
			if !hb.bounds.Contains(rec.Pos) {
				t.Fatalf("bucket %d bounds %v miss record at %v", hb.idx, hb.bounds, rec.Pos)
			}
		}
		n += len(hb.recs)
	}
	if n != c.len() {
		t.Fatalf("len %d, buckets hold %d", c.len(), n)
	}
}

// TestHotCellWindow: for random out-of-order adds, pre-epoch times included,
// the buckets a window returns hold exactly the records inside it.
func TestHotCellWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newHotCell(7 * time.Second)
	base := time.Unix(-50, 0) // straddles the epoch: floor division matters
	var all []Record
	for i := 0; i < 1000; i++ {
		rec := Record{
			ObsID: uint64(i),
			Pos:   geo.Pt(rng.Float64()*100, rng.Float64()*100),
			Time:  base.Add(time.Duration(rng.Intn(100000)) * time.Millisecond),
		}
		c.add(rec)
		all = append(all, rec)
	}
	checkHotCell(t, c)
	for q := 0; q < 200; q++ {
		from := base.Add(time.Duration(rng.Intn(110000)-5000) * time.Millisecond)
		to := from.Add(time.Duration(rng.Intn(20000)) * time.Millisecond)
		want := 0
		for _, rec := range all {
			if !rec.Time.Before(from) && !rec.Time.After(to) {
				want++
			}
		}
		got := 0
		for _, hb := range c.window(from.UnixNano(), to.UnixNano()) {
			for _, rec := range hb.recs {
				if !rec.Time.Before(from) && !rec.Time.After(to) {
					got++
				}
			}
		}
		if got != want {
			t.Fatalf("window [%v, %v]: %d records, want %d", from, to, got, want)
		}
	}
	if got := c.window(base.Add(time.Minute).UnixNano(), base.UnixNano()); len(got) != 0 {
		t.Fatalf("inverted window returned %d buckets", len(got))
	}
}

// TestHotCellEvictBefore: whole buckets before the cutoff leave, the bucket
// holding it is filtered to the instant, drained receives exactly what was
// removed, and a fully evicted cell is empty and reusable.
func TestHotCellEvictBefore(t *testing.T) {
	c := newHotCell(time.Minute)
	if _, _, ok := c.span(); ok {
		t.Fatal("empty cell has a span")
	}
	for i := 0; i < 600; i++ {
		c.add(Record{ObsID: uint64(i), Pos: geo.Pt(float64(i), 0), Time: at(time.Duration(i) * time.Second)})
	}
	start, end, ok := c.span()
	if !ok || !start.Equal(at(0)) || !end.Equal(at(10*time.Minute)) {
		t.Fatalf("span = [%v, %v) %v, want [t0, t0+10m)", start, end, ok)
	}
	var drained []Record
	if n := c.evictBefore(at(5*time.Minute).UnixNano(), &drained); n != 300 || len(drained) != 300 || c.len() != 300 {
		t.Fatalf("evict at a bucket edge removed %d (drained %d), %d left; want 300/300/300", n, len(drained), c.len())
	}
	for _, rec := range drained {
		if !rec.Time.Before(at(5 * time.Minute)) {
			t.Fatalf("drained a record at %v, after the cutoff", rec.Time)
		}
	}
	if n := c.evictBefore(at(5*time.Minute+30*time.Second).UnixNano(), nil); n != 30 {
		t.Fatalf("mid-bucket evict removed %d, want 30", n)
	}
	checkHotCell(t, c)
	if start, _, _ := c.span(); !start.Equal(at(5 * time.Minute)) {
		t.Fatalf("span starts at %v after a mid-bucket evict, want the bucket start", start)
	}
	c.evictBefore(at(time.Hour).UnixNano(), nil)
	if c.len() != 0 || len(c.buckets) != 0 {
		t.Fatalf("cell holds %d records in %d buckets after a full evict", c.len(), len(c.buckets))
	}
	c.add(Record{ObsID: 99, Time: at(2 * time.Hour)})
	checkHotCell(t, c)
	if bs := c.window(at(0).UnixNano(), at(3*time.Hour).UnixNano()); len(bs) != 1 || bs[0].recs[0].ObsID != 99 {
		t.Fatalf("cell unusable after a full evict: %v", bs)
	}
}
