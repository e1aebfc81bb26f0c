package core

import (
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

func summaryHasCell(ws *wire.WorkerSummary, cx, cy int32) bool {
	for _, c := range ws.Cells {
		if c.CX == cx && c.CY == cy {
			return true
		}
	}
	return false
}

// TestSummaryCacheInvalidatedByContentChange is the regression for the stale
// heartbeat sketch: the summary cache used to be keyed on
// (epoch, store.Len(), store.Latest()), so a store that shrank via eviction
// and regrew to the same record count with the same latest timestamp — but
// different spatial content — kept serving the old sketch, steering the
// coordinator's scatter planner at cells that no longer hold data. The cache
// is now keyed on the store's generation counter, which advances on every
// insert, seal, and eviction.
func TestSummaryCacheInvalidatedByContentChange(t *testing.T) {
	w := NewWorker("w01", "worker-01", "coord", cluster.NewInProc(), Options{})
	base := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	rec := func(obs uint64, x, y float64, d time.Duration) stindex.Record {
		return stindex.Record{ObsID: obs, TargetID: obs, Camera: 1, Pos: geo.Pt(x, y), Time: base.Add(d)}
	}
	w.store.Insert(rec(1, 10, 10, 0))
	w.store.Insert(rec(2, 510, 510, 10*time.Second))

	w.mu.Lock()
	s1 := w.summaryLocked()
	cached := w.summaryLocked()
	w.mu.Unlock()
	if cached != s1 {
		t.Fatal("unchanged store rebuilt the summary instead of serving the cache")
	}
	if !summaryHasCell(s1, 0, 0) {
		t.Fatalf("initial summary missing cell (0,0): %+v", s1.Cells)
	}

	// Shrink by one record, then regrow to the same Len with an older
	// timestamp so Latest is unchanged too — only the content differs.
	if removed := w.store.EvictBefore(base.Add(time.Second)); removed != 1 {
		t.Fatalf("EvictBefore removed %d, want 1", removed)
	}
	w.store.Insert(rec(3, 1010, 1010, 5*time.Second))
	if w.store.Len() != 2 {
		t.Fatalf("scenario broken: len=%d", w.store.Len())
	}

	w.mu.Lock()
	s2 := w.summaryLocked()
	w.mu.Unlock()
	if s2 == s1 {
		t.Fatal("summary cache served a stale sketch after shrink-then-regrow")
	}
	if summaryHasCell(s2, 0, 0) {
		t.Fatalf("rebuilt summary still claims evicted cell (0,0): %+v", s2.Cells)
	}
	if !summaryHasCell(s2, 5, 5) {
		t.Fatalf("rebuilt summary missing new cell (5,5): %+v", s2.Cells)
	}
	if got := w.reg.Counter("summary.rebuilds").Value(); got != 2 {
		t.Fatalf("summary.rebuilds = %d, want 2", got)
	}
}
