package bench

import (
	"context"
	"math/rand"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
)

// r16Counters snapshots the coordinator counters and the transport's
// response bytes R16 reports.
func r16Counters(c *core.Cluster) (asked, pruned, bytes int64) {
	reg := c.Coordinator.Metrics()
	return reg.Counter("scatter.asked").Value(),
		reg.Counter("scatter.pruned").Value(),
		c.Transport.Stats().BytesIn
}

// R16ScatterPruning measures the pruned two-phase read path against broadcast
// fan-out as the cluster grows, on an identical localized query mix. Asked
// and pruned are exact per-query worker counts from the coordinator's scatter
// counters. Response bytes are the encoded size of every gathered response,
// counted by the in-proc transport, which runs each call through the wire
// codec (cluster.WithWireFormat); the latency columns therefore include the
// codec round trip. Expected shape: broadcast asks every worker per kNN, so
// its asked column grows linearly with cluster size and its gathered bytes
// with it; the pruned engine's asked column stays near-flat because
// summaries bound the search to the few workers owning data near each query
// point. Answers are identical by construction (the differential suite in
// internal/core proves it); this table prices the fan-out.
func R16ScatterPruning(s Scale) *Table {
	t := &Table{
		ID:     "R16",
		Title:  "Pruned scatter-gather vs broadcast fan-out",
		Notes:  "16×16 grid; kNN k=10 + 200m ranges, localized centers; 200µs injected RPC latency; asked/pruned per query",
		Header: []string{"workers", "engine", "asked/knn", "pruned/knn", "asked/range", "KB/query", "knn lat", "range lat"},
	}
	wl := makeWorkload(16, s.n(300), s.n(30), 11)
	ctx := context.Background()
	queries := s.n(100)
	for _, workers := range []int{4, 8, 16, 32} {
		for _, engine := range []string{"broadcast", "pruned"} {
			faulty := cluster.NewFaulty(cluster.NewInProc(cluster.WithWireFormat()), 1)
			c, err := core.NewLocalClusterOver(faulty, workers, nil, core.Options{
				CellSize:     50,
				DisablePrune: engine == "broadcast",
				LostAfter:    time.Hour,
			})
			if err != nil {
				panic(err)
			}
			if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
				panic(err)
			}
			ingestAll(ctx, c, wl)
			// Refresh every worker's summary so the pruned engine sees the
			// ingested data (production freshness is heartbeat-bounded).
			for _, w := range c.Workers {
				if err := w.SendHeartbeat(ctx); err != nil {
					panic(err)
				}
			}
			// Inject the LAN round trip only for the measured queries.
			for _, w := range c.Workers {
				faulty.SetProgram(w.Addr(), cluster.FaultProgram{Latency: rpcLatency})
			}
			window := fullWindow(wl)
			qf := float64(queries)

			a0, p0, b0 := r16Counters(c)
			rng := rand.New(rand.NewSource(12))
			var knnDur time.Duration
			for q := 0; q < queries; q++ {
				center := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
				st := time.Now()
				if _, err := c.Coordinator.KNN(ctx, center, window, 10); err != nil {
					panic(err)
				}
				knnDur += time.Since(st)
			}
			a1, p1, _ := r16Counters(c)
			rng = rand.New(rand.NewSource(13))
			var rangeDur time.Duration
			for q := 0; q < queries; q++ {
				center := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
				st := time.Now()
				if _, err := c.Coordinator.Range(ctx, geo.RectAround(center, 100), window, 0); err != nil {
					panic(err)
				}
				rangeDur += time.Since(st)
			}
			a2, _, b2 := r16Counters(c)

			t.AddRow(workers, engine,
				float64(a1-a0)/qf,
				float64(p1-p0)/qf,
				float64(a2-a1)/qf,
				float64(b2-b0)/1024/(2*qf),
				knnDur/time.Duration(queries),
				rangeDur/time.Duration(queries))
			c.Stop()
		}
	}
	return t
}
