package main

import (
	"context"
	"fmt"
	"time"

	"stcam/internal/core"
	"stcam/internal/vision"
)

// runIngest is the closed-loop ingest window: one generator goroutine streams
// the replayed trace tick by tick through the pipelined Ingester straight to
// the owning workers, then flushes.
func runIngest(e *env, w *workload, cfg config, r *result) {
	ctx := context.Background()
	tt := &timedTransport{Transport: e.client}
	ing := core.NewIngesterWith(e.coord, tt, core.IngesterOptions{PipelineDepth: pipelineDeep})
	defer ing.Close()

	heapAt := int(w.heapAt * float64(e.tr.n))
	var (
		buf            []vision.Detection
		sent, accepted int
		paused         time.Duration
		firstErr       error
	)
	flush := func() {
		n, err := ing.Flush()
		accepted += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	start := time.Now()
	tt.start = start
	deadline := start.Add(cfg.window())
	for time.Now().Before(deadline) {
		buf = e.tr.step(e.next, buf)
		ing.IngestDetectionsAsync(ctx, buf)
		sent += len(buf)
		e.next++
		if r.heapMB == 0 && sent >= heapAt {
			// Fixed-state memory checkpoint; its pause is not ingest time.
			flush()
			p := time.Now()
			r.heapMB = e.liveHeapMB()
			paused += time.Since(p)
		}
	}
	flush()
	wall := time.Since(start) - paused
	if r.heapMB == 0 {
		r.heapMB = e.liveHeapMB() // checkpoint never reached: the run was far slower than calibrated
	}

	r.attempted = sent
	r.failed = sent - accepted
	if firstErr != nil {
		r.note("ingest error: %v", firstErr)
	}
	// Everything sent within the retention window must still be stored, and
	// nothing much older may be (setup's enrolment observations, stamped
	// before the stream, age out with its first ticks).
	lo, hi := e.sentSince(clusterOptions().Retention, 0), e.sentSince(clusterOptions().Retention, 2)+e.enrolled
	stored := 0
	for _, wk := range e.workers {
		stored += wk.Store().Len()
	}
	if stored < lo || stored > hi {
		r.failed++
		r.note("stored %d records, want %d..%d within retention", stored, lo, hi)
	}
	r.attempted++

	r.e2e("throughput", tt.l.rate(w.opWindow))
	r.e2e("op_p50_ms", ms(tt.l.qw(0.50, w.opWindow)))
	r.e2e("op_p95w_ms", ms(tt.l.qw(0.95, w.opWindow)))
	r.diag("ingest_evps", "1/s", float64(accepted)/wall.Seconds(), accepted)
	r.diag("ingest_batch_ack_p50_ms", "ms", ms(tt.l.p50()), tt.l.n())
	r.diag("ingest_batch_ack_p99w_ms", "ms", ms(tt.l.qw(0.99, w.opWindow)), tt.l.n())
	r.diag("ingest_batch_ack_p99_ms", "ms", ms(tt.l.p99()), tt.l.n())
	r.diag("stored_records", "count", float64(stored), 1)
	r.untraced["ingest"] = tt.l.p50()
}

// sentSince counts the detections sent so far whose observation time lies
// within keep (plus slack ticks) of the newest one.
func (e *env) sentSince(keep time.Duration, slack int) int {
	ticks := int(keep/tickDur) + 1 + slack
	n := 0
	for g := e.next - 1; g >= 0 && g > e.next-1-ticks; g-- {
		n += len(e.tr.ticks[g%len(e.tr.ticks)])
	}
	return n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
