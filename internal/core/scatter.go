package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

var errKNNBadK = errors.New("core: knn k must be positive")

// This file is the pruned scatter-gather engine. Workers piggyback a compact
// store sketch (wire.WorkerSummary) on every heartbeat; the coordinator keeps
// the freshest sketch per node and consults it before fanning a query out:
//
//   - Range/Count/Filter/Heatmap skip workers whose sketch proves they hold
//     no record intersecting the query rect and window.
//   - KNN runs in two phases: probe the workers whose sketch lower-bounds
//     them nearest to the query point, then expand outward only while the
//     kth-best distance found so far does not rule the next worker out.
//
// Soundness leans entirely on the sketch being conservative (see
// stindex.Summarize) and on epoch gating: a sketch built under an older
// camera assignment is ignored, because a reassignment can move records
// between workers wholesale. A worker with no usable sketch is never pruned.
// Freshness is heartbeat-bounded: records ingested since a worker's last
// heartbeat are invisible to its sketch, so a prune can hide them until the
// next heartbeat — the same bounded staleness the membership view already
// has. The coordinator's own ingest proxy drops the sketches of workers it
// forwards to, so data that travelled through the coordinator is never
// pruned away.

// workerTarget pairs a live worker's node ID with its serve address, so the
// scatter path can consult per-node summaries while dialing by address.
type workerTarget struct {
	node wire.NodeID
	addr string
}

// nodeSummary is the freshest sketch received from one node, with the
// heartbeat sequence that carried it (guarding against out-of-order retries).
type nodeSummary struct {
	seq uint64
	sum *wire.WorkerSummary
}

// queryTargets returns the addresses of the live workers a rect query fans
// out to, and how many more were pruned: dropped because their sketch proves
// them empty for the rect and window (counted into scatter.pruned). Owners
// and the epoch the sketches are checked against come from one route table.
func (c *Coordinator) queryTargets(rect geo.Rect, window wire.TimeWindow) ([]string, int) {
	rt := c.table.Load()
	ts := c.targetsFor(rt, rect)
	if c.opts.DisablePrune {
		return addrsOfTargets(ts), 0
	}
	kept := make([]string, 0, len(ts))
	pruned := 0
	for _, t := range ts {
		if summaryCanMatch(c.summaryOf(t.node, rt.epoch), rect, window) {
			kept = append(kept, t.addr)
		} else {
			pruned++
		}
	}
	if pruned > 0 {
		c.reg.Counter("scatter.pruned").Add(int64(pruned))
	}
	return kept, pruned
}

// targetsFor returns the live workers owning cameras whose FOV could have
// produced observations in r (grown by the routing slack), sorted by address.
func (c *Coordinator) targetsFor(rt *routeTable, r geo.Rect) []workerTarget {
	camIDs := c.network.CamerasIntersecting(r.Expand(routeSlack))
	nodes := make(map[wire.NodeID]bool)
	for _, id := range camIDs {
		if n, ok := rt.owner(uint32(id)); ok {
			nodes[n] = true
		}
	}
	var out []workerTarget
	for _, m := range c.membership.Alive() {
		if nodes[m.Node] {
			out = append(out, workerTarget{node: m.Node, addr: m.Addr})
		}
	}
	sortTargets(out)
	return out
}

// allTargets returns every live worker, sorted by address.
func (c *Coordinator) allTargets() []workerTarget {
	alive := c.membership.Alive()
	out := make([]workerTarget, len(alive))
	for i, m := range alive {
		out[i] = workerTarget{node: m.Node, addr: m.Addr}
	}
	sortTargets(out)
	return out
}

func sortTargets(ts []workerTarget) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].addr < ts[j].addr })
}

func addrsOfTargets(ts []workerTarget) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.addr
	}
	return out
}

// --- summary bookkeeping -----------------------------------------------------

// noteSummary records a sketch carried by a heartbeat, keeping the one with
// the highest heartbeat sequence (RPC retries can deliver heartbeats out of
// order).
func (c *Coordinator) noteSummary(node wire.NodeID, seq uint64, s *wire.WorkerSummary) {
	c.sumMu.Lock()
	defer c.sumMu.Unlock()
	if st, ok := c.summaries[node]; ok && st.seq > seq {
		return
	}
	c.summaries[node] = nodeSummary{seq: seq, sum: s}
}

// dropSummary forgets a node's sketch (on re-register: a restarted worker's
// sequence numbers start over and its store may be empty).
func (c *Coordinator) dropSummary(node wire.NodeID) {
	c.sumMu.Lock()
	delete(c.summaries, node)
	c.sumMu.Unlock()
}

// summaryOf returns the node's sketch when it is usable for pruning: present
// and built under the current assignment epoch. Nil means "never prune".
func (c *Coordinator) summaryOf(node wire.NodeID, epoch uint64) *wire.WorkerSummary {
	c.sumMu.Lock()
	defer c.sumMu.Unlock()
	st, ok := c.summaries[node]
	if !ok || st.sum == nil || st.sum.Epoch != epoch {
		return nil
	}
	return st.sum
}

// invalidateSummariesAt drops the sketches of the workers about to receive
// proxied observations: their sketches no longer cover the new data, and a
// prune based on them could hide records the coordinator itself accepted.
func (c *Coordinator) invalidateSummariesAt(byAddr map[string][]wire.Observation) {
	alive := c.membership.Alive()
	c.sumMu.Lock()
	defer c.sumMu.Unlock()
	for _, m := range alive {
		if _, ok := byAddr[m.Addr]; ok {
			delete(c.summaries, m.Node)
		}
	}
}

// --- sketch predicates -------------------------------------------------------

// summaryBucketIndex maps a time to its coarse bucket index (floor division,
// correct for times before BucketFrom).
func summaryBucketIndex(s *wire.WorkerSummary, t time.Time) int64 {
	d, w := t.Sub(s.BucketFrom), s.BucketWidth
	q := d / w
	if d%w != 0 && d < 0 {
		q--
	}
	return int64(q)
}

// summaryCellInWindow reports whether a cell may hold records inside the
// window. Buckets only prove absence: any overlap with a non-zero bucket —
// or a cell with no histogram — keeps the cell.
func summaryCellInWindow(s *wire.WorkerSummary, c *wire.SummaryCell, w wire.TimeWindow) bool {
	if c.Count == 0 {
		return false
	}
	if s.BucketWidth <= 0 || len(c.Buckets) == 0 {
		return true
	}
	if w.To.Before(w.From) {
		return false
	}
	lo, hi := summaryBucketIndex(s, w.From), summaryBucketIndex(s, w.To)
	if hi < 0 || lo >= int64(len(c.Buckets)) {
		return false
	}
	lo = max(lo, 0)
	hi = min(hi, int64(len(c.Buckets))-1)
	for i := lo; i <= hi; i++ {
		if c.Buckets[i] > 0 {
			return true
		}
	}
	return false
}

// summaryCanMatch reports whether the sketch admits any record intersecting
// rect and window. A nil sketch admits everything (never prune blind).
func summaryCanMatch(s *wire.WorkerSummary, rect geo.Rect, window wire.TimeWindow) bool {
	if s == nil {
		return true
	}
	if s.Records == 0 {
		return false
	}
	for i := range s.Cells {
		cell := &s.Cells[i]
		if !rect.Intersects(cell.Bounds) {
			continue
		}
		if summaryCellInWindow(s, cell, window) {
			return true
		}
	}
	return false
}

// summaryKNNLowerBound returns a lower bound on the squared distance from
// center to any record the sketch admits inside window: 0 for a nil sketch
// (unknown, never prunable), +Inf when the sketch proves the worker holds
// nothing in the window.
func summaryKNNLowerBound(s *wire.WorkerSummary, center geo.Point, window wire.TimeWindow) float64 {
	if s == nil {
		return 0
	}
	lb := math.Inf(1)
	if s.Records == 0 {
		return lb
	}
	for i := range s.Cells {
		cell := &s.Cells[i]
		if !summaryCellInWindow(s, cell, window) {
			continue
		}
		if d := cell.Bounds.Dist2To(center); d < lb {
			lb = d
		}
	}
	return lb
}

// --- merging -----------------------------------------------------------------

// mergeParts k-way-merges the workers' encoded answers — each ordered by
// (Time, ObsID), the order onRange returns — into one encoded answer,
// copying each record's bytes once and stopping at limit (0 = no limit). cut
// reports that the limit left records out. A lone part taken whole is
// returned as is.
func mergeParts(parts []*wire.RecordBlock, limit int) (out wire.EncodedRecords, cut bool) {
	live := make([]*wire.RecordBlock, 0, len(parts))
	total, size := 0, 0
	for _, p := range parts {
		if p.Len() > 0 {
			live = append(live, p)
			total += p.Len()
			size += len(p.Bytes())
		}
	}
	want := total
	if limit > 0 && limit < total {
		want, cut = limit, true
		size = (size/total + 1) * limit // the cut answer's expected size; append grows past it if need be
	}
	if want == 0 {
		return out, cut
	}
	if len(live) == 1 && !cut {
		return wire.EncodedRecords{N: want, B: live[0].Bytes()}, false
	}
	ints := make([]int, 2*len(live))
	m := partMerge{parts: live, heads: ints[:len(live)], h: ints[len(live):]}
	for i := range m.h {
		m.h[i] = i
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	out.B = make([]byte, 0, size)
	for ; out.N < want; out.N++ {
		top := m.h[0]
		p := m.parts[top]
		out.B = append(out.B, p.Record(m.heads[top])...)
		m.heads[top]++
		if m.heads[top] == p.Len() {
			m.h[0] = m.h[len(m.h)-1]
			m.h = m.h[:len(m.h)-1]
		}
		m.down(0)
	}
	return out, cut
}

// partMerge is a hand-rolled min-heap of part indices keyed on each part's
// current head record.
type partMerge struct {
	parts []*wire.RecordBlock
	heads []int
	h     []int
}

func (m *partMerge) less(a, b int) bool {
	return m.parts[a].Key(m.heads[a]).Less(m.parts[b].Key(m.heads[b]))
}

func (m *partMerge) down(i int) {
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

func knnRecordLess(a, b wire.KNNRecord) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.ObsID < b.ObsID
}

// mergeTopK merges two lists sorted ascending by (Dist2, ObsID) into the
// combined top-k.
func mergeTopK(a, b []wire.KNNRecord, k int) []wire.KNNRecord {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 && len(b) <= k {
		return b
	}
	out := make([]wire.KNNRecord, 0, min(len(a)+len(b), k))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		if j >= len(b) || (i < len(a) && knnRecordLess(a[i], b[j])) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// mergeKNNResponses folds scatter responses into the accumulated top-k.
func mergeKNNResponses(best []wire.KNNRecord, resps []any, k int) []wire.KNNRecord {
	for _, resp := range resps {
		if kr, ok := resp.(*wire.KNNResult); ok {
			best = mergeTopK(best, kr.Records, k)
		}
	}
	return best
}

// --- two-phase kNN -----------------------------------------------------------

// knnProbeFanout is how many additional workers each expansion round of the
// two-phase kNN probes while the global top-k is still short. Workers whose
// summary lower bound is zero are always probed in the first phase — no
// kth-best distance can ever exclude them.
const knnProbeFanout = 2

type knnCand struct {
	t  workerTarget
	lb float64 // lower bound on squared distance to any admissible record
}

// knnMeta is the two-phase pruned kNN. maxDist2 > 0 additionally bounds the
// search radius (inclusive), as pushed down by a client query.
//
// Exactness argument: candidates are probed in ascending lower-bound order,
// and a worker is skipped only when (a) its sketch proves it empty for the
// window, or (b) the top-k already holds k records and the worker's lower
// bound STRICTLY exceeds the kth-best distance r2 — a worker with lb == r2
// could still hold a record at exactly r2 winning the (Dist2, ObsID)
// tie-break, so it is probed. Workers with lb == 0 can never satisfy (b) and
// are all probed in the first round. Pushed-down bounds are inclusive
// (workers keep d2 <= bound) for the same tie reason; r2 == 0 disables the
// pushdown (0 encodes "unbounded" on the wire) which costs bytes, never
// answers.
func (c *Coordinator) knnMeta(ctx context.Context, center geo.Point, window wire.TimeWindow, k int, maxDist2 float64) ([]wire.KNNRecord, QueryMeta, error) {
	if k <= 0 {
		return nil, QueryMeta{}, errKNNBadK
	}
	start := c.now()
	defer func() { c.reg.Histogram("query.knn").Observe(c.now().Sub(start)) }()
	targets := c.allTargets()
	if c.opts.DisablePrune {
		q := &wire.KNNQuery{QueryID: c.nextQueryID.Add(1), Center: center, Window: window, K: k, MaxDist2: maxDist2}
		resps, meta := c.scatter(ctx, addrsOfTargets(targets), q)
		return mergeKNNResponses(nil, resps, k), meta, nil
	}

	epoch := c.Epoch()
	var meta QueryMeta
	cands := make([]knnCand, 0, len(targets))
	for _, t := range targets {
		lb := summaryKNNLowerBound(c.summaryOf(t.node, epoch), center, window)
		if math.IsInf(lb, 1) || (maxDist2 > 0 && lb > maxDist2) {
			meta.Pruned++
			continue
		}
		cands = append(cands, knnCand{t: t, lb: lb})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lb != cands[j].lb {
			return cands[i].lb < cands[j].lb
		}
		return cands[i].t.addr < cands[j].t.addr
	})

	var (
		best   []wire.KNNRecord
		qid    = c.nextQueryID.Add(1)
		r2     = math.Inf(1)
		next   = 0
		rounds = 0
	)
	for next < len(cands) {
		if len(best) >= k && cands[next].lb > r2 {
			meta.Pruned += len(cands) - next
			break
		}
		hi := next + knnProbeFanout
		for hi < len(cands) && cands[hi].lb == 0 {
			hi++ // zero-bound workers can never be excluded; take them all now
		}
		hi = min(hi, len(cands))
		q := &wire.KNNQuery{QueryID: qid, Center: center, Window: window, K: k, MaxDist2: maxDist2}
		if len(best) >= k && r2 > 0 && (maxDist2 <= 0 || r2 < maxDist2) {
			q.MaxDist2 = r2
		}
		roundStart := c.now()
		resps, m := c.scatter(ctx, addrsOfTargets(targetsOfCands(cands[next:hi])), q)
		phase := c.reg.Histogram("query.knn.expand")
		if rounds == 0 {
			phase = c.reg.Histogram("query.knn.probe")
		}
		phase.Observe(c.now().Sub(roundStart))
		meta.Asked += m.Asked
		meta.Answered += m.Answered
		best = mergeKNNResponses(best, resps, k)
		if len(best) >= k {
			r2 = best[len(best)-1].Dist2
		}
		next = hi
		rounds++
	}
	if meta.Pruned > 0 {
		c.reg.Counter("scatter.pruned").Add(int64(meta.Pruned))
	}
	c.reg.Counter("knn.rounds").Add(int64(rounds))
	return best, meta, nil
}

func targetsOfCands(cs []knnCand) []workerTarget {
	out := make([]workerTarget, len(cs))
	for i, cd := range cs {
		out[i] = cd.t
	}
	return out
}
