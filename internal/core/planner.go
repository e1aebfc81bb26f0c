package core

import (
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

// Multi-predicate query planning. A FilterQuery combines a spatial range with
// target and camera-set predicates; the worker has two physical plans:
//
//   - "spatial": walk the spatio-temporal index for the rectangle, then
//     filter by target/cameras. Cost ∝ records in the rectangle and window.
//   - "target": walk the per-target history index, then filter by
//     rectangle/cameras. Cost ∝ the target's observation count.
//
// The planner prices both plans with the store's exact counts: Count settles
// hot buckets and sealed chunks from their own counts, and TargetCount reads
// the per-target index.

// planFilter chooses the evaluation order for a multi-predicate query,
// returning "spatial" or "target".
func (w *Worker) planFilter(m *wire.FilterQuery) string {
	if m.ForcePlan == "spatial" || (m.ForcePlan == "target" && m.TargetID != 0) {
		return m.ForcePlan
	}
	if m.TargetID == 0 {
		return "spatial"
	}
	targetCost := w.store.TargetCount(m.TargetID)
	if targetCost == 0 {
		return "target" // provably empty: the cheapest possible plan
	}
	if targetCost <= w.store.Count(m.Rect, m.Window.From, m.Window.To) {
		return "target"
	}
	return "spatial"
}

// onFilter executes a multi-predicate query with the chosen plan.
func (w *Worker) onFilter(m *wire.FilterQuery) (any, error) {
	start := w.now()
	plan := w.planFilter(m)
	camSet := make(map[uint32]bool, len(m.Cameras))
	for _, c := range m.Cameras {
		camSet[c] = true
	}
	match := func(r stindex.Record) bool {
		if m.TargetID != 0 && r.TargetID != m.TargetID {
			return false
		}
		if len(camSet) > 0 && !camSet[r.Camera] {
			return false
		}
		return true
	}

	var recs []stindex.Record
	switch plan {
	case "target":
		for _, r := range w.store.TargetHistory(m.TargetID, m.Window.From, m.Window.To) {
			if m.Rect.Contains(r.Pos) && match(r) {
				recs = append(recs, r)
			}
		}
	default:
		for _, r := range w.store.RangeQuery(m.Rect, m.Window.From, m.Window.To) {
			if match(r) {
				recs = append(recs, r)
			}
		}
	}
	recs = w.filterPrimary(recs)
	truncated := false
	if m.Limit > 0 && len(recs) > m.Limit {
		recs = recs[:m.Limit]
		truncated = true
	}
	w.reg.Histogram("query.filter").Observe(w.now().Sub(start))
	w.reg.Counter("plan." + plan).Inc() //lint:allow metricname cardinality bounded by the two planner strategies (spatial/target)
	return &wire.FilterResult{
		QueryID:   m.QueryID,
		Records:   toWireRecords(recs),
		Plan:      plan,
		Truncated: truncated,
	}, nil
}
