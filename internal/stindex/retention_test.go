package stindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"stcam/internal/geo"
)

// Retention trims sealed chunks through a live-suffix view and finds the
// chunks to trim through the expiry queue. These tests hold that answers do
// not depend on when reclamation runs, that sealed bytes never change, and
// that a retention tick's work follows what expired.

// TestAnswersIndependentOfReclamationTiming feeds one stream — late arrivals
// (some already expired), duplicate timestamps and ObsIDs, straggler seals —
// into a tiered store evicting on every insert, a tiered store with no
// retention whose cutoff is applied through EvictBefore only every few dozen
// inserts, and a flat store evicting on every insert. At each checkpoint, right
// after the lazy store's eviction, every answer, Len and the sealed record
// counts agree, and Range, Count and Heatmap match the linear scan.
func TestAnswersIndependentOfReclamationTiming(t *testing.T) {
	const retention = 20 * time.Second
	lazyCfg := Config{CellSize: 50, BucketWidth: 500 * time.Millisecond, SealHorizon: 10 * time.Second}
	eagerCfg := lazyCfg
	eagerCfg.Retention = retention
	eager, lazy := withChunkTarget(NewStore(eagerCfg), 32), withChunkTarget(NewStore(lazyCfg), 32)
	flat := NewStore(Config{CellSize: 50, BucketWidth: time.Second, Retention: retention, SealHorizon: neverSeal})
	var ref linearScan

	const lazyEvery, checkEvery = 37, 37 * 19
	rng := rand.New(rand.NewSource(31))
	recs := edgeWorkload(rng, 6000, 50, time.Second, 1)
	dropped, trimmed := 0, 0
	for i, rec := range recs {
		if rec.Time.Before(eager.Latest().Add(-retention)) {
			dropped++
		}
		eager.Insert(rec)
		lazy.Insert(rec)
		flat.Insert(rec)
		ref = append(ref, rec)
		for _, e := range eager.expiry {
			if e.c.skip > 0 {
				trimmed++
				break
			}
		}
		if (i+1)%lazyEvery != 0 {
			continue
		}
		cutoff := lazy.Latest().Add(-retention)
		lazy.EvictBefore(cutoff)
		if (i+1)%checkEvery != 0 {
			continue
		}
		ref = ref.evictBefore(cutoff)
		label := fmt.Sprintf("after %d inserts", i+1)
		diffBattery(t, flat, eager, label+" (evict every insert)")
		diffBattery(t, flat, lazy, label+" (evict every 37)")
		checkOracle(t, eager, ref, label)

		// The hot/sealed split differs with straggler timing; after a seal
		// at the same Latest both hold exactly the records before the
		// frontier in the sealed tier.
		eager.Seal()
		lazy.Seal()
		frontier := eager.Latest().Add(-eagerCfg.SealHorizon)
		wantSealed, wantTarget := 0, 0
		for _, r := range ref {
			if r.Time.Before(frontier) {
				wantSealed++
				if r.TargetID != 0 {
					wantTarget++
				}
			}
		}
		for name, s := range map[string]*Store{"eager": eager, "lazy": lazy} {
			var scratch []hotRecord
			sealedTarget := 0
			for id := range s.targetSealed {
				sealedTarget += s.sealedTargetCount(id, &scratch)
			}
			if ts := s.TierStats(); ts.SealedRecords != wantSealed || sealedTarget != wantTarget {
				t.Fatalf("%s: %s store holds %d sealed and %d sealed targeted records, want %d and %d",
					label, name, ts.SealedRecords, sealedTarget, wantSealed, wantTarget)
			}
		}
		diffBattery(t, flat, lazy, label+" (evict every 37, sealed)")
	}
	if dropped == 0 || trimmed == 0 {
		t.Fatalf("vacuous: %d records expired on arrival, %d inserts saw a trimmed chunk", dropped, trimmed)
	}
}

// retentionStore returns a tiered store at its retention bound, fed by the
// returned stream: 100 detections per 1 s tick over a 1 km world, every
// third carrying a TargetID, Retention 2 min and a half (so no tick lands on
// the cutoff) and SealHorizon 30 s.
func retentionStore() (*Store, *tickStream) {
	s := NewStore(Config{CellSize: 50, BucketWidth: time.Second, Retention: 2*time.Minute + 500*time.Millisecond, SealHorizon: 30 * time.Second})
	st := newTickStream(3, 100, 1000)
	st.targetsEvery = 3
	st.insertTicks(s, 150)
	return s, st
}

// TestTrimKeepsChunkBytes: retention trims a sealed chunk without touching
// its encoding. Every chunk keeps its data slice — same backing array, same
// bytes — for as long as it is resident, and its live view only shrinks.
func TestTrimKeepsChunkBytes(t *testing.T) {
	s, st := retentionStore()
	type snap struct {
		data       []byte
		total      int
		start, end int64
	}
	before := map[*sealedChunk]snap{}
	for _, e := range s.expiry {
		before[e.c] = snap{bytes.Clone(e.c.data), e.c.skip + e.c.count, e.c.start, e.c.end}
	}
	ptr := map[*sealedChunk]*byte{}
	for c := range before {
		ptr[c] = &c.data[0]
	}
	st.insertTicks(s, 40)
	trimmed := 0
	for _, e := range s.expiry {
		c := e.c
		b, ok := before[c]
		if !ok {
			continue
		}
		if &c.data[0] != ptr[c] || !bytes.Equal(c.data, b.data) {
			t.Fatalf("chunk [%d, %d] changed its encoding across eviction ticks", b.start, b.end)
		}
		if c.skip+c.count != b.total || c.start < b.start || c.end != b.end {
			t.Fatalf("chunk view grew or moved: skip %d count %d of %d, start %d (was %d)", c.skip, c.count, b.total, c.start, b.start)
		}
		if c.skip > 0 {
			trimmed++
			if got := c.appendLive(nil); len(got) != c.count || got[0].ns != c.start {
				t.Fatalf("trimmed chunk decodes %d records from %d, want %d from %d", len(got), got[0].ns, c.count, c.start)
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("vacuous: no resident chunk was trimmed")
	}
}

// TestRetentionTickWorkFollowsExpiry: a tick that advances Latest without
// expiring anything touches no chunk, hot cell or history; a tick that does
// touches exactly the chunks holding an expired record and no hot cell.
func TestRetentionTickWorkFollowsExpiry(t *testing.T) {
	s, st := retentionStore()
	latest := s.Latest()
	visits, n := s.sweepVisits, s.Len()
	// The cutoff moves 400 ms, short of the oldest tick still live.
	s.Insert(Record{ObsID: 1 << 40, TargetID: 1, Pos: geo.Pt(10, 10), Time: latest.Add(400 * time.Millisecond)})
	if d := s.sweepVisits - visits; d != 0 || s.Len() != n+1 {
		t.Fatalf("quiet tick: %d retention visits, Len %d → %d", d, n, s.Len())
	}

	next := st.record()
	cutoff := next.Time.Add(-s.cfg.Retention).UnixNano()
	want := 0
	for _, e := range s.expiry {
		if e.c.start < cutoff {
			want++
		}
	}
	if want == 0 {
		t.Fatal("vacuous: the next tick expires no sealed record")
	}
	visits = s.sweepVisits
	s.Insert(next)
	if d := s.sweepVisits - visits; d != want {
		t.Fatalf("expiring tick: %d retention visits, want the %d chunks holding expired records (of %d cells, %d chunks)",
			d, want, len(s.cells), len(s.expiry))
	}
}

// TestRetentionTickAllocs bounds the allocations of one steady-state tick at
// the retention bound, between two seals. Trimming allocates nothing, so what
// is left is the hot tier's slice growth.
func TestRetentionTickAllocs(t *testing.T) {
	const ceiling = 2.0 // allocations per inserted record
	s, st := retentionStore()
	s.Seal() // the next seal is 16 ticks away; the runs below take 11
	perRecord := testing.AllocsPerRun(10, func() { st.insertTicks(s, 1) }) / float64(st.perTick)
	if perRecord > ceiling {
		t.Fatalf("one retention tick allocates %.2f times per record, want ≤ %.1f", perRecord, ceiling)
	}
}

// TestSealedChunksExactSize: a chunk keeps its encoding at its exact size,
// not in the grown buffer it was encoded into, whose slack would stay
// resident for the chunk's life.
func TestSealedChunksExactSize(t *testing.T) {
	s, _ := retentionStore()
	if len(s.expiry) == 0 {
		t.Fatal("vacuous: nothing sealed")
	}
	for _, e := range s.expiry {
		if c := e.c; cap(c.data) != len(c.data) {
			t.Fatalf("chunk [%d, %d] holds %d bytes in a %d-byte buffer", c.start, c.end, len(c.data), cap(c.data))
		}
	}
}

// TestSealBytesPerRecord bounds what one seal allocates per record it moves:
// the chunks it keeps and their index entries. The records drained from each
// cell, their sort keys and the encoding buffer are scratch the store reuses
// from seal to seal.
func TestSealBytesPerRecord(t *testing.T) {
	const ceiling = 64.0 // bytes per sealed record
	s := NewStore(Config{CellSize: 50, BucketWidth: time.Second, SealHorizon: 30 * time.Second})
	st := newTickStream(3, 100, 300)
	st.targetsEvery = 3
	// Seals run at 16 s steps of the frontier, the last at Latest = 144 s;
	// stopping at 159 s leaves 15 s of records for the forced seal below.
	st.insertTicks(s, 160)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := s.Seal()
	runtime.ReadMemStats(&after)
	if n < 1000 {
		t.Fatalf("vacuous: the seal moved %d records", n)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d records sealed, %.1f bytes allocated per record", n, perRecord)
	if perRecord > ceiling {
		t.Fatalf("Seal allocates %.1f bytes per sealed record, want ≤ %.0f", perRecord, ceiling)
	}
}
