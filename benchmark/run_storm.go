package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// loadClients is how many load-generator goroutines a window may use.
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// hotQueries are the eight fixed shapes the storm's reader repeats; inside
// the serving plane's 2 s TTL every repeat is a cache hit.
func hotQueries(tr *trace) []any {
	w := wire.TimeWindow{From: tr.t0, To: tr.t0.Add(time.Hour)}
	return []any{
		&wire.RangeQuery{Rect: geo.RectOf(300, 300, 400, 400), Window: w},
		&wire.RangeQuery{Rect: geo.RectOf(1200, 500, 1300, 600), Window: w},
		&wire.RangeQuery{Rect: geo.RectOf(800, 1500, 900, 1600), Window: w, Limit: 64},
		&wire.CountQuery{Rect: geo.RectOf(0, 0, 400, 400), Window: w},
		&wire.CountQuery{Rect: geo.RectOf(1000, 1000, 1400, 1400), Window: w},
		&wire.CountQuery{Rect: geo.RectOf(1500, 200, 1900, 600), Window: w},
		&wire.HeatmapQuery{Rect: tr.world, Window: w, CellSize: 50},
		&wire.HeatmapQuery{Rect: geo.RectOf(0, 0, 1000, 1000), Window: w, CellSize: 100},
	}
}

// stormTick builds global tick g as the single multi-camera batch a remote
// driver hands the coordinator's ingest proxy.
func (e *env) stormTick(g int, buf []vision.Detection) (*wire.IngestBatch, []vision.Detection) {
	buf = e.tr.step(g, buf)
	return &wire.IngestBatch{FrameTime: buf[0].Time, Observations: toObservations(buf)}, buf
}

// runStorm is R21 over real sockets: an open-loop writer sends one featured
// tick per stormPeriod through the coordinator proxy, timed from its due
// time, while one closed-loop reader alternates a hot query with a
// PollUpdates for the next subscriber.
func runStorm(e *env, w *workload, cfg config, r *result) {
	ctx := context.Background()
	var (
		acks, late, hot, polls, lag lats
		sentObs, acceptedObs        int
		wFailed, rFailed            int
		updates                     int
		dropped                     int64
		evicted                     int
	)
	start := time.Now()
	deadline := start.Add(cfg.window())
	first := e.next
	due := func(g int) time.Time { return start.Add(time.Duration(g-first) * stormPeriod) }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop writer
		defer wg.Done()
		var buf []vision.Detection
		for ; due(e.next).Before(deadline); e.next++ {
			var batch *wire.IngestBatch
			batch, buf = e.stormTick(e.next, buf)
			at := due(e.next)
			time.Sleep(time.Until(at))
			late.add(0, time.Since(at), 0)
			resp, err := e.client.Call(ctx, e.coord.Addr(), batch)
			end := time.Now()
			sentObs += len(batch.Observations)
			ack, ok := resp.(*wire.IngestAck)
			if err != nil || !ok {
				wFailed++
				ack = &wire.IngestAck{}
			}
			acceptedObs += ack.Accepted
			acks.add(end.Sub(start), end.Sub(at), ack.Accepted)
		}
	}()
	go func() { // closed-loop reader
		defer wg.Done()
		qs := hotQueries(e.tr)
		for i := 0; time.Now().Before(deadline); i++ {
			s := time.Now()
			resp, err := e.client.Call(ctx, e.coord.Addr(), qs[i%len(qs)])
			end := time.Now()
			hot.add(end.Sub(start), end.Sub(s), 1)
			if err != nil || incomplete(resp) {
				rFailed++
			}
			s = time.Now()
			resp, err = e.client.Call(ctx, e.coord.Addr(), &wire.PollUpdates{SubID: e.subs[i%len(e.subs)]})
			end = time.Now()
			polls.add(end.Sub(start), end.Sub(s), 1)
			pr, ok := resp.(*wire.PollResult)
			if err != nil || !ok {
				rFailed++
				continue
			}
			updates += len(pr.Updates)
			for _, u := range pr.Updates {
				// An entering target's update carries the observation that
				// caused it; its tick's due time is when the event happened.
				if len(u.Positive) > 0 {
					lag.add(end.Sub(start), end.Sub(due(e.tr.tickOf(u.Time))), 1)
				}
			}
		}
	}()
	wg.Wait()
	wall := time.Since(start)

	// Drain every subscriber once more: none may have been evicted or have
	// lost an update to a full buffer.
	for _, id := range e.subs {
		resp, err := e.client.Call(ctx, e.coord.Addr(), &wire.PollUpdates{SubID: id})
		if pr, ok := resp.(*wire.PollResult); err == nil && ok {
			dropped += pr.Dropped
			if pr.Evicted {
				evicted++
			}
		} else {
			evicted++
		}
	}
	r.attempted = acks.n() + hot.n() + polls.n()
	r.failed = wFailed + rFailed + evicted
	if sentObs != acceptedObs {
		r.failed++
		r.note("accepted %d of %d detections", acceptedObs, sentObs)
	}
	if dropped > 0 {
		r.failed++
		r.note("%d updates dropped from subscriber buffers", dropped)
	}

	// The writer is open-loop, so its throughput is the offered load for as
	// long as the cluster keeps up and falls below it when it does not. The
	// reader's rate is a diagnostic: with no think time it is whatever CPU
	// the writes leave over, and swings by a fifth with the host's mood.
	r.e2e("throughput", acks.rate(w.opWindow))
	r.e2e("op_p50_ms", ms(acks.qw(0.50, w.opWindow)))
	r.e2e("op_p95w_ms", ms(acks.qw(0.95, w.opWindow)))
	r.diag("ingest_ack_p50_ms", "ms", ms(acks.p50()), acks.n())
	r.diag("ingest_ack_p99w_ms", "ms", ms(acks.qw(0.99, w.opWindow)), acks.n())
	r.diag("ingest_ack_p99_ms", "ms", ms(acks.p99()), acks.n())
	r.diag("hot_query_p50_ms", "ms", ms(hot.p50()), hot.n())
	r.diag("poll_p50_ms", "ms", ms(polls.p50()), polls.n())
	r.diag("update_lag_p50_ms", "ms", ms(lag.p50()), lag.n())
	r.diag("gen_late_p99_ms", "ms", ms(late.p99()), late.n())
	r.diag("reader_ops", "1/s", float64(hot.n()+polls.n())/wall.Seconds(), hot.n()+polls.n())
	r.diag("updates_polled", "count", float64(updates), polls.n())
	if polls.n() > 0 {
		r.setLayer("serve.updates_per_poll", float64(updates)/float64(polls.n()), polls.n())
	}
	r.untraced["ingest"] = acks.p50()
	r.untraced["hot_query"] = hot.p50()
	r.untraced["poll"] = polls.p50()
}
