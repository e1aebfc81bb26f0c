package main

import (
	"context"
	"fmt"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/serve"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// env is the system under test — what TestTCPEndToEnd assembles: a
// coordinator with the serving plane attached and numWorkers workers, each on
// its own TCP transport and loopback port, plus a separate client transport.
type env struct {
	tr       *trace
	coord    *core.Coordinator
	front    *serve.Frontend
	workers  []*core.Worker
	client   *cluster.TCP
	nodeTr   []*cluster.TCP
	subs     []uint64 // mixed.storm subscriber IDs
	next     int      // next global tick of the replayed stream not yet sent
	enrolled int      // observations sent by enrol, outside the stream
}

// setup generates the input and boots the cluster, up to the first timed
// operation: trace generation, boot, camera assignment, preload or subscribe.
func setup(w *workload, cfg config) (e *env, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e = &env{tr: genTrace(cfg.seed, cfg.objects(), baseTicks, w.featured)}
	defer func(built *env) {
		if err != nil {
			built.stop()
		}
	}(e)
	opts := clusterOptions()
	coordTr := cluster.NewTCP()
	e.nodeTr = append(e.nodeTr, coordTr)
	e.coord = core.NewCoordinator("127.0.0.1:0", coordTr, nil, opts)
	if err := e.coord.Start(); err != nil {
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	e.front = serve.New(e.coord, serve.Options{})
	for i := 0; i < numWorkers; i++ {
		tr := cluster.NewTCP()
		e.nodeTr = append(e.nodeTr, tr)
		wk := core.NewWorker(wire.NodeID(fmt.Sprintf("w%d", i+1)), "127.0.0.1:0", e.coord.Addr(), tr, opts)
		if err := wk.Start(ctx); err != nil {
			return nil, fmt.Errorf("start worker %d: %w", i+1, err)
		}
		wk.StartHeartbeats(heartbeat)
		e.workers = append(e.workers, wk)
	}
	e.client = cluster.NewTCP()
	resp, err := e.client.Call(ctx, e.coord.Addr(), &wire.AssignCameras{Cameras: e.tr.cams})
	if err != nil {
		return nil, fmt.Errorf("assign cameras: %w", err)
	}
	if ack, ok := resp.(*wire.AssignAck); !ok || ack.Accepted != len(e.tr.cams) {
		return nil, fmt.Errorf("assign cameras: unexpected answer %+v", resp)
	}
	if w.preload {
		if err := e.preload(ctx); err != nil {
			return nil, err
		}
	}
	if w.featured {
		if err := e.enrol(ctx); err != nil {
			return nil, err
		}
	}
	if w.name == "mixed.storm" {
		for i := 0; i < stormSubscribers; i++ {
			resp, err := e.client.Call(ctx, e.coord.Addr(), &wire.Subscribe{Kind: wire.ContinuousRange, Rect: stormFences[i%len(stormFences)]})
			if err != nil {
				return nil, fmt.Errorf("subscribe: %w", err)
			}
			e.subs = append(e.subs, resp.(*wire.SubscribeAck).SubID)
		}
	}
	return e, nil
}

// preload ingests one feature-less pass over the base trace, forces the
// sealed tier up to the seal horizon (so both tiers answer queries, as in a
// store that has run for longer than the horizon), and waits for one
// heartbeat so the coordinator's scatter summaries are current.
func (e *env) preload(ctx context.Context) error {
	ing := core.NewIngesterWith(e.coord, e.client, core.IngesterOptions{PipelineDepth: pipelineDeep})
	defer ing.Close()
	var buf []vision.Detection
	for ; e.next < len(e.tr.ticks); e.next++ {
		buf = e.tr.step(e.next, buf)
		ing.IngestDetectionsAsync(ctx, buf)
	}
	accepted, err := ing.Flush()
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if accepted != e.tr.n {
		return fmt.Errorf("preload: accepted %d of %d detections", accepted, e.tr.n)
	}
	for _, w := range e.workers {
		w.Store().Seal()
		if err := w.SendHeartbeat(ctx); err != nil {
			return fmt.Errorf("preload heartbeat: %w", err)
		}
	}
	return nil
}

// firstSightings returns, per owning worker address, the first detection of
// every identity that worker meets in one pass over the trace.
func (e *env) firstSightings() map[string][]vision.Detection {
	out := map[string][]vision.Detection{}
	seen := map[string]map[uint64]bool{}
	for _, tick := range e.tr.ticks {
		for _, d := range tick {
			addr, ok := e.coord.RouteFor(uint32(d.Camera))
			if !ok {
				continue
			}
			if seen[addr] == nil {
				seen[addr] = map[uint64]bool{}
			}
			if !seen[addr][d.TrueID] {
				seen[addr][d.TrueID] = true
				out[addr] = append(out[addr], d)
			}
		}
	}
	return out
}

// enrol shows every worker, once, each identity it will meet in the stream,
// stamped one tick before the stream begins. A worker's association cost
// grows with its gallery, and how fast the gallery fills depends on the
// seed's trajectories; enrolling up front starts the timed window where a
// deployment that has been running for a while already is, at a gallery size
// that stays put.
func (e *env) enrol(ctx context.Context) error {
	for addr, dets := range e.firstSightings() {
		obs := toObservations(dets)
		for i := range obs {
			obs[i].ObsID = enrolIDBase + uint64(e.enrolled+i)
			obs[i].Time = e.tr.t0.Add(-tickDur)
		}
		resp, err := e.client.Call(ctx, addr, &wire.IngestBatch{Observations: obs})
		if err != nil {
			return fmt.Errorf("enrol: %w", err)
		}
		if ack, ok := resp.(*wire.IngestAck); !ok || ack.Accepted != len(obs) {
			return fmt.Errorf("enrol: unexpected answer %+v", resp)
		}
		e.enrolled += len(obs)
	}
	return nil
}

// stop tears the cluster down and waits for its goroutines.
func (e *env) stop() {
	if e.client != nil {
		e.client.Close()
	}
	for _, w := range e.workers {
		w.Stop()
	}
	if e.coord != nil {
		e.coord.Stop()
	}
	for _, tr := range e.nodeTr {
		tr.Close()
	}
}

// workerFor returns the worker serving at addr.
func (e *env) workerFor(addr string) *core.Worker {
	for _, w := range e.workers {
		if w.Addr() == addr {
			return w
		}
	}
	return nil
}

// timedTransport times every client Call and notes what each ack accepted,
// which is how the ingest workloads see per-batch latency and per-window
// throughput through the Ingester's asynchronous pipeline.
type timedTransport struct {
	cluster.Transport
	start time.Time
	l     lats
}

func (t *timedTransport) Call(ctx context.Context, addr string, req any) (any, error) {
	s := time.Now()
	resp, err := t.Transport.Call(ctx, addr, req)
	end := time.Now()
	work := 0
	if ack, ok := resp.(*wire.IngestAck); ok {
		work = ack.Accepted
	}
	t.l.add(end.Sub(t.start), end.Sub(s), work)
	return resp, err
}
