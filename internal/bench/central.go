package bench

import (
	"stcam/internal/geo"
	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// central is the centralized baseline R1, R2 and R10 measure the framework
// against: every camera streams to one index and one associator on one node,
// with no partitioning and no fan-out. It lives here, not beside the
// framework, because only these experiments run it: no program serves from
// it. The broadcast-handoff tracking baseline for R3 lives in core
// (Options.BroadcastHandoff), since it shares the distributed machinery.
// Not safe for concurrent use: each experiment drives it from one goroutine.
type central struct {
	assoc *vision.Associator
	store *stindex.Store
}

// newCentral returns an empty centralized server indexing at cellSize.
func newCentral(cellSize float64) *central {
	return &central{
		assoc: vision.NewAssociator(0.75),
		store: stindex.NewStore(stindex.Config{CellSize: cellSize}),
	}
}

// Stored returns the number of indexed records.
func (c *central) Stored() int { return c.store.Len() }

// Ingest associates and indexes a batch of detections.
func (c *central) Ingest(dets []vision.Detection) {
	for i := range dets {
		d := &dets[i]
		var targetID uint64
		if len(d.Feature) > 0 {
			targetID, _ = c.assoc.Associate(d.Feature)
		}
		c.store.Insert(stindex.Record{
			ObsID:    d.ObsID,
			TargetID: targetID,
			Camera:   uint32(d.Camera),
			Pos:      d.Pos,
			Time:     d.Time,
		})
	}
}

// Range answers a spatio-temporal range query, at most limit records when
// limit > 0.
func (c *central) Range(rect geo.Rect, window wire.TimeWindow, limit int) []wire.ResultRecord {
	recs := c.store.RangeQuery(rect, window.From, window.To)
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	out := make([]wire.ResultRecord, len(recs))
	for i, r := range recs {
		out[i] = wire.ResultRecord{ObsID: r.ObsID, TargetID: r.TargetID, Camera: r.Camera, Pos: r.Pos, Time: r.Time}
	}
	return out
}

// KNN answers a k-nearest query.
func (c *central) KNN(center geo.Point, window wire.TimeWindow, k int) []wire.KNNRecord {
	ns := c.store.KNN(center, window.From, window.To, k)
	out := make([]wire.KNNRecord, len(ns))
	for i, n := range ns {
		out[i] = wire.KNNRecord{
			ResultRecord: wire.ResultRecord{ObsID: n.ObsID, TargetID: n.TargetID, Camera: n.Camera, Pos: n.Pos, Time: n.Time},
			Dist2:        n.Dist2,
		}
	}
	return out
}
