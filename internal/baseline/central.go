// Package baseline implements the comparison systems the evaluation measures
// the framework against: a fully centralized analysis server (every camera
// streams to one index on one node), mirroring the "no distribution" design
// point in experiments R1 and R10. The broadcast-handoff tracking baseline
// for R3 lives in core (Options.BroadcastHandoff), since it shares the
// distributed machinery and differs only in priming scope.
package baseline

import (
	"sort"
	"sync"
	"time"

	"stcam/internal/geo"
	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// Central is the centralized analysis server: one spatio-temporal index, one
// associator, no partitioning, no fan-out. Its API mirrors the coordinator's
// query surface so harnesses can drive either interchangeably.
type Central struct {
	assoc *vision.Associator
	store *stindex.Store

	mu         sync.Mutex
	continuous map[uint64]*centralContinuous
	nextQuery  uint64
}

type centralContinuous struct {
	queryID   uint64
	kind      wire.ContinuousKind
	rect      geo.Rect
	threshold int
	inside    map[uint64]stindex.Record
	ch        chan wire.ContinuousUpdate
}

// CentralConfig configures the centralized baseline.
type CentralConfig struct {
	AssocThreshold float64
	CellSize       float64
	BucketWidth    time.Duration
	Retention      time.Duration
}

// NewCentral returns an empty centralized server.
func NewCentral(cfg CentralConfig) *Central {
	if cfg.AssocThreshold <= 0 || cfg.AssocThreshold >= 1 {
		cfg.AssocThreshold = 0.75
	}
	return &Central{
		assoc:      vision.NewAssociator(cfg.AssocThreshold),
		continuous: make(map[uint64]*centralContinuous),
		store: stindex.NewStore(stindex.Config{
			CellSize:    cfg.CellSize,
			BucketWidth: cfg.BucketWidth,
			Retention:   cfg.Retention,
		}),
	}
}

// Stored returns the number of indexed records.
func (c *Central) Stored() int { return c.store.Len() }

// Ingest indexes a batch of detections, returning the count accepted.
func (c *Central) Ingest(dets []vision.Detection) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range dets {
		d := &dets[i]
		var targetID uint64
		if len(d.Feature) > 0 {
			targetID, _ = c.assoc.Associate(d.Feature)
		}
		rec := stindex.Record{
			ObsID:    d.ObsID,
			TargetID: targetID,
			Camera:   uint32(d.Camera),
			Pos:      d.Pos,
			Time:     d.Time,
		}
		c.store.Insert(rec)
		for _, cc := range c.continuous {
			cc.observe(rec)
		}
	}
	return len(dets)
}

// Range answers a spatio-temporal range query.
func (c *Central) Range(rect geo.Rect, window wire.TimeWindow, limit int) []wire.ResultRecord {
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
func (c *Central) KNN(center geo.Point, window wire.TimeWindow, k int) []wire.KNNRecord {
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

// Count answers a count query.
func (c *Central) Count(rect geo.Rect, window wire.TimeWindow) int {
	return c.store.Count(rect, window.From, window.To)
}

// Trajectory returns a target's history.
func (c *Central) Trajectory(targetID uint64, window wire.TimeWindow) []wire.ResultRecord {
	recs := c.store.TargetHistory(targetID, window.From, window.To)
	out := make([]wire.ResultRecord, len(recs))
	for i, r := range recs {
		out[i] = wire.ResultRecord{ObsID: r.ObsID, TargetID: r.TargetID, Camera: r.Camera, Pos: r.Pos, Time: r.Time}
	}
	return out
}

// Targets lists the associated identity IDs, sorted.
func (c *Central) Targets() []uint64 {
	ids := c.store.Targets()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// InstallContinuous registers a standing range/count query; updates arrive on
// the returned channel until RemoveContinuous.
func (c *Central) InstallContinuous(kind wire.ContinuousKind, rect geo.Rect, threshold int) (uint64, <-chan wire.ContinuousUpdate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextQuery++
	cc := &centralContinuous{
		queryID:   c.nextQuery,
		kind:      kind,
		rect:      rect,
		threshold: threshold,
		inside:    make(map[uint64]stindex.Record),
		ch:        make(chan wire.ContinuousUpdate, 1024),
	}
	c.continuous[cc.queryID] = cc
	return cc.queryID, cc.ch
}

// RemoveContinuous uninstalls a standing query.
func (c *Central) RemoveContinuous(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc, ok := c.continuous[id]
	if !ok {
		return false
	}
	delete(c.continuous, id)
	close(cc.ch)
	return true
}

func (cc *centralContinuous) observe(r stindex.Record) {
	if r.TargetID == 0 {
		return
	}
	_, wasIn := cc.inside[r.TargetID]
	nowIn := cc.rect.Contains(r.Pos)
	var upd *wire.ContinuousUpdate
	switch {
	case nowIn && !wasIn:
		cc.inside[r.TargetID] = r
		upd = &wire.ContinuousUpdate{QueryID: cc.queryID, Time: r.Time,
			Positive: []wire.ResultRecord{{ObsID: r.ObsID, TargetID: r.TargetID, Camera: r.Camera, Pos: r.Pos, Time: r.Time}}}
	case !nowIn && wasIn:
		prev := cc.inside[r.TargetID]
		delete(cc.inside, r.TargetID)
		upd = &wire.ContinuousUpdate{QueryID: cc.queryID, Time: r.Time,
			Negative: []wire.ResultRecord{{ObsID: prev.ObsID, TargetID: prev.TargetID, Camera: prev.Camera, Pos: prev.Pos, Time: prev.Time}}}
	case nowIn && wasIn:
		cc.inside[r.TargetID] = r
		return
	default:
		return
	}
	upd.Count = len(cc.inside)
	select {
	case cc.ch <- *upd:
	default:
	}
}
