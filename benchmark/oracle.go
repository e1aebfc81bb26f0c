package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// The oracle is a brute-force reference over the generated trace: no index,
// no tiers, no scatter. query.scan preloads exactly one feature-less pass, so
// the base trace is the whole truth.

// scan visits every preloaded detection whose time lies in the closed window.
func (tr *trace) scan(w wire.TimeWindow, fn func(d *vision.Detection)) {
	lo, hi := 0, len(tr.ticks)-1
	if w.From.After(tr.t0) {
		lo = int((w.From.Sub(tr.t0) + tickDur - 1) / tickDur)
	}
	if end := tr.t0.Add(time.Duration(hi) * tickDur); w.To.Before(end) {
		hi = tr.tickOf(w.To)
	}
	for g := lo; g <= hi; g++ {
		for i := range tr.ticks[g] {
			fn(&tr.ticks[g][i])
		}
	}
}

func sameRecord(got wire.ResultRecord, want *vision.Detection) bool {
	return got.ObsID == want.ObsID && got.TargetID == 0 && got.Camera == uint32(want.Camera) &&
		got.Pos == want.Pos && got.Time.Equal(want.Time)
}

// refRange is the reference range answer, in (time, ObsID) order.
func refRange(tr *trace, rect geo.Rect, w wire.TimeWindow) []*vision.Detection {
	var out []*vision.Detection
	tr.scan(w, func(d *vision.Detection) {
		if rect.Contains(d.Pos) {
			out = append(out, d)
		}
	})
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].ObsID < out[j].ObsID
	})
	return out
}

// checkAnswer compares one answer with the reference, record for record.
func checkAnswer(tr *trace, a answered) error {
	switch q := a.q.req.(type) {
	case *wire.RangeQuery:
		got, ok := a.resp.(*wire.RangeResult)
		if !ok {
			return fmt.Errorf("answer is %T", a.resp)
		}
		want := refRange(tr, q.Rect, q.Window)
		if len(got.Records) != len(want) {
			return fmt.Errorf("%d records, want %d", len(got.Records), len(want))
		}
		for i := range want {
			if !sameRecord(got.Records[i], want[i]) {
				return fmt.Errorf("record %d is obs %d, want obs %d", i, got.Records[i].ObsID, want[i].ObsID)
			}
		}
	case *wire.KNNQuery:
		got, ok := a.resp.(*wire.KNNResult)
		if !ok {
			return fmt.Errorf("answer is %T", a.resp)
		}
		type cand struct {
			d     *vision.Detection
			dist2 float64
		}
		var all []cand
		tr.scan(q.Window, func(d *vision.Detection) { all = append(all, cand{d, q.Center.Dist2(d.Pos)}) })
		sort.Slice(all, func(i, j int) bool {
			if all[i].dist2 != all[j].dist2 {
				return all[i].dist2 < all[j].dist2
			}
			return all[i].d.ObsID < all[j].d.ObsID
		})
		if len(all) > q.K {
			all = all[:q.K]
		}
		if len(got.Records) != len(all) {
			return fmt.Errorf("%d neighbours, want %d", len(got.Records), len(all))
		}
		for i, c := range all {
			if !sameRecord(got.Records[i].ResultRecord, c.d) || got.Records[i].Dist2 != c.dist2 {
				return fmt.Errorf("neighbour %d is obs %d, want obs %d", i, got.Records[i].ObsID, c.d.ObsID)
			}
		}
	case *wire.CountQuery:
		got, ok := a.resp.(*wire.CountResult)
		if !ok {
			return fmt.Errorf("answer is %T", a.resp)
		}
		if want := len(refRange(tr, q.Rect, q.Window)); got.Count != want {
			return fmt.Errorf("count %d, want %d", got.Count, want)
		}
	case *wire.HeatmapQuery:
		got, ok := a.resp.(*wire.HeatmapResult)
		if !ok {
			return fmt.Errorf("answer is %T", a.resp)
		}
		want := make(map[[2]int32]int64)
		tr.scan(q.Window, func(d *vision.Detection) {
			if q.Rect.Contains(d.Pos) {
				want[[2]int32{int32(math.Floor(d.Pos.X / q.CellSize)), int32(math.Floor(d.Pos.Y / q.CellSize))}]++
			}
		})
		if len(got.Cells) != len(want) {
			return fmt.Errorf("%d cells, want %d", len(got.Cells), len(want))
		}
		for _, c := range got.Cells {
			if want[[2]int32{c.CX, c.CY}] != c.Count {
				return fmt.Errorf("cell (%d,%d) holds %d, want %d", c.CX, c.CY, c.Count, want[[2]int32{c.CX, c.CY}])
			}
		}
	}
	return nil
}
