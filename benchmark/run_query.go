package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

// Query kinds of query.scan, in catalogue order.
const (
	kRange = iota
	kKNN
	kCount
	kHeatmap
	kRangeWide
	numKinds
)

var kindNames = [numKinds]string{"range", "knn", "count", "heatmap", "range_wide"}

// query is one generated request with its kind.
type query struct {
	kind int
	req  any
}

// fullWindow covers every observation any replay can carry. Each query using
// it nudges To by its own sequence number: the answer is unchanged but the
// canonical cache key is distinct, so the serving plane always misses.
func fullWindow(tr *trace, seq int) wire.TimeWindow {
	return wire.TimeWindow{From: tr.t0.Add(-time.Hour), To: tr.t0.Add(1000*time.Hour + time.Duration(seq)*time.Second)}
}

func square(rng *rand.Rand, world geo.Rect, side float64) geo.Rect {
	x := world.Min.X + rng.Float64()*(world.Width()-side)
	y := world.Min.Y + rng.Float64()*(world.Height()-side)
	return geo.RectOf(x, y, x+side, y+side)
}

// mixCycle is the fixed order in which the kinds recur, each kind spread
// evenly over the cycle, so any stretch of a client's stream holds the
// kinds in the catalogue's proportions whatever the seed — one range_wide
// costs as much as a hundred narrow queries, and drawing kinds at random
// would let their count, not the system, set the throughput.
var mixCycle = func() []int {
	weights := [numKinds]int{mixRange, mixKNN, mixCount, mixHeatmap, mixRangeWide}
	total := 0
	for _, w := range weights {
		total += w
	}
	var given [numKinds]int
	cycle := make([]int, total)
	for i := range cycle {
		best, bestDeficit := 0, -1.0
		for k, w := range weights {
			if d := float64(w*(i+1))/float64(total) - float64(given[k]); d > bestDeficit {
				best, bestDeficit = k, d
			}
		}
		cycle[i] = best
		given[best]++
	}
	return cycle
}()

// genQuery builds one query: the kind comes from the fixed cycle at slot, the
// shape from rng. Every shape is distinct with probability one (random
// real-valued corners); seq, unique per query, keeps the full-window kinds
// distinct too.
func genQuery(rng *rand.Rand, tr *trace, slot, seq int) query {
	span, id := tr.span(), uint64(seq)
	switch kind := mixCycle[slot%len(mixCycle)]; kind {
	case kRange:
		from := tr.t0.Add(time.Duration(rng.Float64() * float64(span-120*time.Second)))
		return query{kind, &wire.RangeQuery{QueryID: id, Rect: square(rng, tr.world, 100), Window: wire.TimeWindow{From: from, To: from.Add(120 * time.Second)}}}
	case kKNN:
		c := geo.Pt(rng.Float64()*tr.world.Width(), rng.Float64()*tr.world.Height())
		return query{kind, &wire.KNNQuery{QueryID: id, Center: c, K: 10, Window: wire.TimeWindow{From: tr.t0.Add(span - 120*time.Second), To: tr.t0.Add(span)}}}
	case kCount:
		return query{kind, &wire.CountQuery{QueryID: id, Rect: square(rng, tr.world, 400), Window: fullWindow(tr, seq)}}
	case kHeatmap:
		return query{kind, &wire.HeatmapQuery{QueryID: id, Rect: tr.world, CellSize: 50, Window: fullWindow(tr, seq)}}
	default:
		return query{kind, &wire.RangeQuery{QueryID: id, Rect: square(rng, tr.world, 1000), Window: fullWindow(tr, seq)}}
	}
}

// answered is a query with the answer it got, kept for the oracle.
type answered struct {
	q    query
	resp any
}

// incomplete reports a scatter that lost a worker: Answered < Asked.
func incomplete(resp any) bool {
	switch m := resp.(type) {
	case *wire.RangeResult:
		return m.Answered < m.Asked
	case *wire.KNNResult:
		return m.Answered < m.Asked
	case *wire.CountResult:
		return m.Answered < m.Asked
	}
	return false
}

// runQueries is the read-only window: closed-loop clients, each sending its
// own seeded stream of distinct queries to the coordinator over TCP and
// waiting for each decoded answer before sending the next.
func runQueries(e *env, w *workload, cfg config, r *result) {
	ctx := context.Background()
	clients := loadClients()
	type perClient struct {
		l      [numKinds]lats
		cycles []time.Duration // how long each full pass over mixCycle took
		kept   []answered
		failed int
		n      int
	}
	out := make([]perClient, clients)
	start := time.Now()
	deadline := start.Add(cfg.window())
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc := &out[c]
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
			cycleStart := start
			for seq := 0; time.Now().Before(deadline); seq++ {
				if seq > 0 && seq%len(mixCycle) == 0 {
					now := time.Now()
					pc.cycles = append(pc.cycles, now.Sub(cycleStart))
					cycleStart = now
				}
				q := genQuery(rng, e.tr, seq+c*len(mixCycle)/clients, seq*clients+c+1)
				s := time.Now()
				resp, err := e.client.Call(ctx, e.coord.Addr(), q.req)
				end := time.Now()
				pc.l[q.kind].add(end.Sub(start), end.Sub(s), 1)
				pc.n++
				if err != nil || incomplete(resp) {
					pc.failed++
					continue
				}
				if seq%oracleEvery == 0 {
					pc.kept = append(pc.kept, answered{q, resp})
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var per [numKinds]lats
	var narrow lats
	var cycles []time.Duration
	var kept []answered
	for c := range out {
		cycles = append(cycles, out[c].cycles...)
		for k := range per {
			per[k].merge(&out[c].l[k])
			if k != kRangeWide {
				narrow.merge(&out[c].l[k])
			}
		}
		kept = append(kept, out[c].kept...)
		r.attempted += out[c].n
		r.failed += out[c].failed
	}
	if cfg.corrupt {
		corruptOne(kept)
	}
	for _, a := range kept {
		if err := checkAnswer(e.tr, a); err != nil {
			r.failed++
			r.note("oracle: %s: %v", kindNames[a.q.kind], err)
		}
	}

	// Every pass over mixCycle holds the same kinds in the same order, so the
	// passes are like-for-like samples of the mix's cost: the throughput is
	// the clients' cycle length over the median pass. (Counting queries per
	// one-second slice instead would let a 90 ms range_wide straddling a
	// slice boundary move the figure by a tenth.)
	qps := float64(r.attempted) / wall.Seconds()
	if len(cycles) > 0 {
		qps = float64(clients*len(mixCycle)) / quantile(cycles, 0.50).Seconds()
	}
	r.e2e("throughput", qps)
	r.e2e("op_p50_ms", ms(per[kRange].qw(0.50, w.opWindow)))
	r.e2e("op_p95w_ms", ms(per[kRange].qw(0.95, w.opWindow)))
	r.diag("query_qps", "1/s", float64(r.attempted)/wall.Seconds(), r.attempted)
	for k, name := range kindNames {
		r.diag(name+"_p50_ms", "ms", ms(per[k].p50()), per[k].n())
		r.untraced[name] = per[k].p50()
	}
	r.diag("range_p90w_ms", "ms", ms(per[kRange].qw(0.90, w.opWindow)), per[kRange].n())
	r.diag("range_p99w_ms", "ms", ms(per[kRange].qw(0.99, w.opWindow)), per[kRange].n())
	r.diag("query_p99w_ms", "ms", ms(narrow.qw(0.99, w.opWindow)), narrow.n())
	r.diag("query_p99_ms", "ms", ms(narrow.p99()), narrow.n())
	r.diag("oracle_checked", "count", float64(len(kept)), r.attempted)
}

// corruptOne damages the first non-empty range answer (test hook).
func corruptOne(kept []answered) {
	for _, a := range kept {
		if rr, ok := a.resp.(*wire.RangeResult); ok && len(rr.Records) > 0 {
			rr.Records[0].ObsID++
			return
		}
	}
}
