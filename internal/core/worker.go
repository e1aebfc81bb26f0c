package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/metrics"
	"stcam/internal/stindex"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// Worker is one node of the analysis cluster. It owns a partition of the
// camera set, ingests those cameras' detection streams into a local
// spatio-temporal index, answers the coordinator's sub-queries, evaluates
// continuous queries incrementally, and runs the target trackers currently
// resident on it.
type Worker struct {
	id        wire.NodeID
	addr      string
	transport cluster.Transport

	// coordMu guards the coordinator target state: the candidate list (a
	// worker booted with a comma-separated address list can fail over
	// between HA coordinators), the active index, and the bounded queue of
	// coordinator pushes deferred while leaderless. Leaf lock: held only
	// around its own fields, never while calling out.
	coordMu     sync.Mutex
	coordAddrs  []string
	coordIdx    int
	pendingPush []any
	rpc         *cluster.Resilient // resilience layer for all outbound calls
	opts        Options
	reg         *metrics.Registry
	idNamespace uint64

	server cluster.Server

	// mu guards the ingest stage-1 state: membership (epoch, cameras,
	// primary), index-insert coherence (store, assoc), delivery dedup
	// (ingestSeqs), and heartbeat state.
	mu         sync.Mutex
	epoch      uint64
	cameras    map[uint32]*camera.Camera
	primary    map[uint32]bool
	store      *stindex.Store
	assoc      *vision.Associator
	probes     []vision.Probe   // onIngest scratch: the batch's featured primary observations
	localIDs   []uint64         // onIngest scratch: their associated identities
	recs       []stindex.Record // onIngest scratch: the batch's owned rows, indexed in one store call
	ingestSeqs map[string]*ingestSeqState
	hbSeq      uint64
	loadMeter  *metrics.Meter

	// hbMu serializes heartbeat sends so hbShell — the reusable heartbeat
	// message, rebuilt in place each send to keep the steady-state heartbeat
	// path allocation-free — is never mutated under an in-flight call.
	hbMu    sync.Mutex
	hbShell wire.Heartbeat

	// Heartbeat summary cache: the wire form of the last store sketch, valid
	// while (epoch, store generation) are unchanged. The generation counter
	// bumps on every store mutation, so an eviction followed by inserts that
	// happen to restore the same Len and Latest still invalidates — keying
	// on (len, latest) served a stale sketch in exactly that case.
	sumCache *wire.WorkerSummary
	sumEpoch uint64
	sumGen   uint64

	// Readiness state: whether registration succeeded, and the assignment
	// epoch the coordinator last acknowledged — when it runs ahead of our
	// local epoch, our camera assignment is stale and we are not ready.
	registered   bool
	lastAckEpoch uint64

	// evalMu guards the ingest stage-2 state: continuous-query answer sets,
	// resident tracks, and armed primes, so the slow evaluation stage
	// (appearance matching, answer-set deltas) cannot block queries or
	// further index inserts. Lock order: mu may be acquired briefly while
	// holding evalMu (curEpoch), never the reverse.
	evalMu     sync.Mutex
	continuous map[uint64]*continuousState
	tracks     map[uint64]*trackState
	primes     map[uint64]*primeState

	lifecycle sync.WaitGroup
	stopCh    chan struct{}
	stopOnce  sync.Once
}

// trackState is a track owned by this worker.
type trackState struct {
	trackID    uint64
	camera     uint32
	feature    vision.Feature
	lastSeen   time.Time
	handingOff bool
}

// primeState is a handoff watch armed on some of this worker's cameras.
type primeState struct {
	trackID uint64
	cameras map[uint32]bool
	feature vision.Feature
	expires time.Time
}

// ingestSeqState is the per-source delivery cursor for idempotent sequenced
// ingest: the highest sequence applied and its ack, so a retried delivery is
// answered from the original outcome without touching the index.
type ingestSeqState struct {
	seq uint64
	ack wire.IngestAck
}

// stagedObs carries one accepted, associated primary observation from ingest
// stage 1 (index insert under w.mu) to stage 2 (evaluation under w.evalMu):
// a reference into the batch, which outlives stage 2 because onIngest runs
// both, and the target ID stage 1 assigned.
type stagedObs struct {
	obs      *wire.Observation
	targetID uint64
}

// record is the index record stage 1 inserted for the staged observation.
func (s stagedObs) record() stindex.Record {
	return stindex.Record{
		ObsID:    s.obs.ObsID,
		TargetID: s.targetID,
		Camera:   s.obs.Camera,
		Pos:      s.obs.Pos,
		Time:     s.obs.Time,
	}
}

// NewWorker constructs a worker bound to the given transport addresses.
// coordAddr may be a comma-separated list of coordinator addresses (an HA
// group); the worker talks to one at a time and rotates — or follows a
// CodeNotLeader redirect — when it stops answering.
func NewWorker(id wire.NodeID, addr, coordAddr string, transport cluster.Transport, opts Options) *Worker {
	opts.fill()
	var coords []string
	for _, a := range strings.Split(coordAddr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			coords = append(coords, a)
		}
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	reg := metrics.NewRegistry()
	return &Worker{
		id:          id,
		addr:        addr,
		coordAddrs:  coords,
		transport:   transport,
		rpc:         resilientFor(transport, opts, reg),
		opts:        opts,
		reg:         reg,
		idNamespace: uint64(h.Sum32()) << 32,
		cameras:     make(map[uint32]*camera.Camera),
		primary:     make(map[uint32]bool),
		store: stindex.NewStore(stindex.Config{
			CellSize:    opts.CellSize,
			Retention:   opts.Retention,
			SealHorizon: opts.SealHorizon,
		}),
		assoc:      vision.NewAssociator(opts.AssocThreshold),
		ingestSeqs: make(map[string]*ingestSeqState),
		continuous: make(map[uint64]*continuousState),
		tracks:     make(map[uint64]*trackState),
		primes:     make(map[uint64]*primeState),
		loadMeter:  metrics.NewMeter(),
		stopCh:     make(chan struct{}),
	}
}

// now reads the injected clock (Options.Clock): the only sanctioned
// wall-clock source in this package, per the clockinject analyzer.
func (w *Worker) now() time.Time { return w.opts.Clock.Now() }

// ID returns the worker's node ID.
func (w *Worker) ID() wire.NodeID { return w.id }

// Addr returns the worker's serve address: the actual bound address once
// Start has run (important with ":0" listeners), the configured one before.
func (w *Worker) Addr() string {
	if w.server != nil {
		return w.server.Addr()
	}
	return w.addr
}

// Metrics exposes the worker's instrumentation registry.
func (w *Worker) Metrics() *metrics.Registry { return w.reg }

// Store exposes the local index (read-mostly diagnostics and tests).
func (w *Worker) Store() *stindex.Store { return w.store }

// handoffQueueMax bounds the pushes a leaderless worker will queue before
// shedding the oldest; tracking handoffs and continuous updates deferred
// during a failover drain once a coordinator answers again.
const handoffQueueMax = 4096

// coordTarget returns the coordinator address currently in use.
func (w *Worker) coordTarget() string {
	w.coordMu.Lock()
	defer w.coordMu.Unlock()
	if len(w.coordAddrs) == 0 {
		return ""
	}
	return w.coordAddrs[w.coordIdx%len(w.coordAddrs)]
}

// rotateCoord advances to the next coordinator candidate, if the current
// target still is cur (concurrent callers rotate once, not once each).
func (w *Worker) rotateCoord(cur string) {
	w.coordMu.Lock()
	defer w.coordMu.Unlock()
	if len(w.coordAddrs) < 2 {
		return
	}
	if w.coordAddrs[w.coordIdx%len(w.coordAddrs)] == cur {
		w.coordIdx = (w.coordIdx + 1) % len(w.coordAddrs)
		w.reg.Counter("coord.rotations").Inc()
	}
}

// redirectCoord makes addr the active coordinator — the CodeNotLeader
// answer names the leader, so the worker jumps straight to it instead of
// probing the candidate list.
func (w *Worker) redirectCoord(addr string) {
	if addr == "" {
		return
	}
	w.coordMu.Lock()
	defer w.coordMu.Unlock()
	for i, a := range w.coordAddrs {
		if a == addr {
			w.coordIdx = i
			return
		}
	}
	w.coordAddrs = append(w.coordAddrs, addr)
	w.coordIdx = len(w.coordAddrs) - 1
}

// callCoord sends one request to the current coordinator, following a
// CodeNotLeader redirect once and rotating the candidate list on transport
// failure so the next call tries the next peer.
func (w *Worker) callCoord(ctx context.Context, req any) (any, error) {
	target := w.coordTarget()
	resp, err := w.rpc.Call(ctx, target, req)
	var re *cluster.RemoteError
	switch {
	case err == nil:
		return resp, nil
	case errors.As(err, &re) && re.Code == wire.CodeNotLeader:
		w.reg.Counter("coord.redirects").Inc()
		if re.Message != "" {
			w.redirectCoord(re.Message)
		} else {
			w.rotateCoord(target)
		}
		return w.rpc.Call(ctx, w.coordTarget(), req)
	case !errors.As(err, &re):
		// Transport failure: this coordinator may be gone; try its peer on
		// the next call.
		w.rotateCoord(target)
	}
	return resp, err
}

// pushCoord delivers a coordinator push (track update, handoff, continuous
// delta), queueing it for a later drain when no coordinator answers — a
// leaderless worker defers tracking handoffs instead of dropping targets.
func (w *Worker) pushCoord(ctx context.Context, p any) {
	if _, err := w.callCoord(ctx, p); err != nil {
		w.reg.Counter("push.errors").Inc()
		w.enqueuePush(p)
	}
}

func (w *Worker) enqueuePush(p any) {
	w.coordMu.Lock()
	defer w.coordMu.Unlock()
	if len(w.pendingPush) >= handoffQueueMax {
		w.pendingPush = w.pendingPush[1:]
		w.reg.Counter("handoff.queue_shed").Inc()
	}
	w.pendingPush = append(w.pendingPush, p)
	w.reg.Gauge("handoff.queue_depth").Set(int64(len(w.pendingPush)))
}

// drainPushes replays queued pushes after the coordinator answered again
// (heartbeat or registration succeeded). Replay stops at the first failure;
// what remains waits for the next drain.
func (w *Worker) drainPushes(ctx context.Context) {
	for {
		w.coordMu.Lock()
		if len(w.pendingPush) == 0 {
			w.coordMu.Unlock()
			return
		}
		p := w.pendingPush[0]
		w.pendingPush = w.pendingPush[1:]
		w.reg.Gauge("handoff.queue_depth").Set(int64(len(w.pendingPush)))
		w.coordMu.Unlock()
		if _, err := w.callCoord(ctx, p); err != nil {
			w.coordMu.Lock()
			w.pendingPush = append([]any{p}, w.pendingPush...)
			w.reg.Gauge("handoff.queue_depth").Set(int64(len(w.pendingPush)))
			w.coordMu.Unlock()
			return
		}
		w.reg.Counter("handoff.queue_drained").Inc()
	}
}

// Start binds the worker's server and registers with the coordinator.
// Registration rides the resilience layer, so a coordinator that is briefly
// unreachable is retried with backoff before Start gives up.
func (w *Worker) Start(ctx context.Context) error {
	srv, err := w.transport.Serve(w.addr, w.handle)
	if err != nil {
		return fmt.Errorf("core: worker %s serve: %w", w.id, err)
	}
	w.server = srv
	if err := w.register(ctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// register announces this worker to the coordinator. Also used to recover
// when a restarted coordinator answers heartbeats with "must re-register".
func (w *Worker) register(ctx context.Context) error {
	resp, err := w.callCoord(ctx, &wire.Register{Node: w.id, Addr: w.Addr(), Capacity: 1})
	if err != nil {
		return fmt.Errorf("core: worker %s register: %w", w.id, err)
	}
	if ack, ok := resp.(*wire.RegisterAck); !ok || !ack.Accepted {
		return fmt.Errorf("core: worker %s registration rejected", w.id)
	}
	w.mu.Lock()
	w.registered = true
	w.mu.Unlock()
	w.drainPushes(ctx)
	return nil
}

// StartHeartbeats begins pushing heartbeats every interval until Stop. Tests
// that drive time manually can skip this and call SendHeartbeat directly.
func (w *Worker) StartHeartbeats(interval time.Duration) {
	w.lifecycle.Add(1)
	go func() {
		defer w.lifecycle.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.SendHeartbeat(context.Background())
			case <-w.stopCh:
				return
			}
		}
	}()
}

// SendHeartbeat pushes one heartbeat to the coordinator. A "must re-register"
// answer — the coordinator restarted and lost its membership — triggers
// re-registration and one heartbeat resend, so the worker rejoins instead of
// heartbeating into the void until the next sweep kills it.
func (w *Worker) SendHeartbeat(ctx context.Context) error {
	err := w.sendHeartbeatOnce(ctx)
	var re *cluster.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeMustRegister {
		w.reg.Counter("heartbeat.reregister").Inc()
		if err := w.register(ctx); err != nil {
			return err
		}
		err = w.sendHeartbeatOnce(ctx)
	}
	if err == nil {
		// The coordinator answered: replay anything deferred while it (or
		// its predecessor) was unreachable.
		w.drainPushes(ctx)
	}
	return err
}

func (w *Worker) sendHeartbeatOnce(ctx context.Context) error {
	// Rebuild the reusable shell in place (hbMu keeps it off the wire between
	// sends); the summary it points at is the independently-owned cache, so
	// handing the same shell out every interval shares nothing mutable.
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	hb := &w.hbShell
	w.mu.Lock()
	w.hbSeq++
	hb.Node = w.id
	hb.Seq = w.hbSeq
	hb.Load = w.loadMeter.Rate()
	hb.Stored = w.store.Len()
	hb.Cameras = len(w.cameras)
	hb.Summary = w.summaryLocked()
	w.mu.Unlock()
	resp, err := w.callCoord(ctx, hb)
	if err != nil {
		return err
	}
	if ack, ok := resp.(*wire.HeartbeatAck); ok {
		w.mu.Lock()
		w.lastAckEpoch = ack.Epoch
		w.mu.Unlock()
	}
	return nil
}

// The heartbeat summary's resolution: coarse cells of summaryCellFactor ×
// CellSize and at most summaryTimeBuckets time buckets.
const (
	summaryCellFactor  = 4
	summaryTimeBuckets = 8
)

// summaryLocked returns the store sketch piggybacked on heartbeats, rebuilding
// it only when the store content or the assignment epoch changed since the
// last heartbeat. Callers hold w.mu.
func (w *Worker) summaryLocked() *wire.WorkerSummary {
	gen := w.store.Gen()
	if w.sumCache != nil && w.sumEpoch == w.epoch && w.sumGen == gen {
		return w.sumCache
	}
	s := w.store.Summarize(summaryCellFactor*w.opts.CellSize, summaryTimeBuckets)
	ws := &wire.WorkerSummary{
		Epoch:       w.epoch,
		Records:     s.Records,
		CellSize:    s.CellSize,
		BucketFrom:  s.BucketFrom,
		BucketWidth: s.BucketWidth,
	}
	if len(s.Cells) > 0 {
		ws.Cells = make([]wire.SummaryCell, len(s.Cells))
		for i, c := range s.Cells {
			ws.Cells[i] = wire.SummaryCell{CX: c.CX, CY: c.CY, Count: c.Count, Bounds: c.Bounds, Buckets: c.Buckets}
		}
	}
	w.sumCache, w.sumEpoch, w.sumGen = ws, w.epoch, gen
	w.reg.Counter("summary.rebuilds").Inc()
	return ws
}

// Ready reports whether this worker is a functioning cluster member:
// registered with the coordinator and holding a camera assignment at least
// as new as the epoch the coordinator last acknowledged. A nil return means
// ready.
func (w *Worker) Ready() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.registered {
		return errors.New("not registered with coordinator")
	}
	if w.lastAckEpoch > w.epoch {
		return fmt.Errorf("assignment stale: coordinator at epoch %d, local %d", w.lastAckEpoch, w.epoch)
	}
	return nil
}

// Stop halts background loops and closes the server.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	w.lifecycle.Wait()
	if w.server != nil {
		w.server.Close()
	}
}

// handle dispatches inbound RPCs, timing each into a per-kind rpc.serve
// histogram for the exposition endpoint.
func (w *Worker) handle(ctx context.Context, from string, req any) (any, error) {
	start := w.now()
	resp, err := w.dispatch(ctx, from, req)
	w.reg.Histogram("rpc.serve." + wire.KindOf(req).String()).Observe(w.now().Sub(start)) //lint:allow metricname per-kind latency series; cardinality bounded by the closed wire.MsgKind enum
	return resp, err
}

func (w *Worker) dispatch(ctx context.Context, from string, req any) (any, error) {
	switch m := req.(type) {
	case *wire.AssignCameras:
		return w.onAssign(m)
	case *wire.IngestBatch:
		return w.onIngest(ctx, m)
	case *wire.RangeQuery:
		return w.onRange(m)
	case *wire.KNNQuery:
		return w.onKNN(m)
	case *wire.CountQuery:
		return w.onCount(m)
	case *wire.TrajectoryQuery:
		return w.onTrajectory(m)
	case *wire.InstallContinuous:
		return w.onInstallContinuous(m)
	case *wire.RemoveContinuous:
		return w.onRemoveContinuous(m)
	case *wire.TrackStart:
		return w.onTrackStart(m)
	case *wire.TrackPrime:
		return w.onTrackPrime(m)
	case *wire.TrackStop:
		return w.onTrackStop(m)
	case *wire.HeatmapQuery:
		return w.onHeatmap(m)
	case *wire.FilterQuery:
		return w.onFilter(m)
	case *wire.StatsQuery:
		return w.onStats()
	default:
		return &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("worker: unexpected %T", req)}, nil
	}
}

func (w *Worker) onAssign(m *wire.AssignCameras) (any, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m.Epoch < w.epoch {
		return &wire.Error{Code: wire.CodeWrongEpoch, Message: fmt.Sprintf("stale epoch %d < %d", m.Epoch, w.epoch)}, nil
	}
	w.epoch = m.Epoch
	w.cameras = make(map[uint32]*camera.Camera, len(m.Cameras)+len(m.Replicas))
	primary := make(map[uint32]bool, len(m.Cameras))
	for _, ci := range m.Cameras {
		w.cameras[ci.ID] = camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range)
		primary[ci.ID] = true
	}
	w.primary = primary // published whole; see primaryCameras
	for _, ci := range m.Replicas {
		w.cameras[ci.ID] = camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range)
	}
	w.reg.Gauge("cameras.owned").Set(int64(len(w.primary)))
	w.reg.Gauge("cameras.replica").Set(int64(len(m.Replicas)))
	return &wire.AssignAck{Epoch: m.Epoch, Accepted: len(m.Cameras) + len(m.Replicas)}, nil
}

// onIngest is the hot path, split into two stages. Stage 1, under w.mu, is
// the short critical section: sequenced-delivery dedup, ownership check,
// identity association, and one index insert for the batch's owned rows.
// Stage 2, under w.evalMu, is the staged evaluation: continuous queries,
// tracking, and observation-time expiry. Queries never wait behind stage 2,
// and stage-1 inserts from the next pipelined batch overlap with this batch's
// evaluation.
func (w *Worker) onIngest(ctx context.Context, m *wire.IngestBatch) (any, error) {
	w.mu.Lock()
	sequenced := m.Source != "" && m.Seq != 0
	if sequenced {
		if st, ok := w.ingestSeqs[m.Source]; ok && m.Seq <= st.seq {
			// Duplicate delivery (at-least-once sender retried, or the
			// transport duplicated the frame): answer from the recorded
			// outcome, never re-apply. A sequence older than the cursor has
			// no recorded ack; it is acknowledged empty, which is still
			// correct because its original delivery was already counted.
			ack := wire.IngestAck{Replayed: true}
			if m.Seq == st.seq {
				ack = st.ack
				ack.Replayed = true
			}
			w.mu.Unlock()
			w.reg.Counter("ingest.replays").Inc()
			return &ack, nil
		}
	}
	// Identity association for every featured primary observation, in batch
	// order under one associator lock; the insert loop below consumes the IDs
	// in the same order.
	w.probes = w.probes[:0]
	for i := range m.Observations {
		if obs := &m.Observations[i]; len(obs.Feature) > 0 && w.primary[obs.Camera] {
			w.probes = append(w.probes, vision.Probe{Feature: obs.Feature, At: obs.Time})
		}
	}
	var expired int
	w.localIDs, expired = w.assoc.AssociateBatch(w.probes, w.opts.Retention, w.localIDs[:0])
	localIDs := w.localIDs

	accepted, rejected, replicated := 0, 0, 0
	latest := m.FrameTime
	// Stage 2 sees only associated rows: continuous queries skip target 0
	// and tracking skips rows without a feature, so a featureless row is
	// done once indexed. Every associated row was a probe.
	evals := make([]stagedObs, 0, len(w.probes))
	w.recs = w.recs[:0]
	for i := range m.Observations {
		obs := &m.Observations[i]
		if _, owned := w.cameras[obs.Camera]; !owned {
			rejected++
			continue
		}
		if obs.Time.After(latest) {
			latest = obs.Time
		}
		if !w.primary[obs.Camera] {
			// Standby copy: index only. The primary owner runs association,
			// continuous queries, and tracking; running them here too would
			// duplicate answer deltas and track updates.
			replicated++
			w.recs = append(w.recs, stindex.Record{
				ObsID:  obs.ObsID,
				Camera: obs.Camera,
				Pos:    obs.Pos,
				Time:   obs.Time,
			})
			continue
		}
		accepted++
		// Worker-local identities, namespaced into cluster-wide target IDs.
		var targetID uint64
		if len(obs.Feature) > 0 {
			targetID = w.idNamespace | localIDs[0]
			localIDs = localIDs[1:]
		}
		w.recs = append(w.recs, stindex.Record{
			ObsID:    obs.ObsID,
			TargetID: targetID,
			Camera:   obs.Camera,
			Pos:      obs.Pos,
			Time:     obs.Time,
		})
		if targetID != 0 {
			evals = append(evals, stagedObs{obs: obs, targetID: targetID})
		}
	}
	w.store.Insert(w.recs...)
	ack := wire.IngestAck{Accepted: accepted, Rejected: rejected, Replicated: replicated}
	if sequenced {
		st, ok := w.ingestSeqs[m.Source]
		if !ok {
			st = &ingestSeqState{}
			w.ingestSeqs[m.Source] = st
		}
		st.seq, st.ack = m.Seq, ack
	}
	w.loadMeter.Mark(int64(accepted + replicated))
	w.reg.Counter("ingest.accepted").Add(int64(accepted))
	w.reg.Counter("ingest.rejected").Add(int64(rejected))
	w.reg.Counter("ingest.replica").Add(int64(replicated))
	w.reg.Gauge("store.records").Set(int64(w.store.Len()))
	w.reg.Gauge("assoc.gallery_size").Set(int64(w.assoc.Gallery().Len()))
	w.reg.Counter("assoc.expired").Add(int64(expired))
	w.mu.Unlock()

	pushes := w.evaluateIngest(evals, latest)
	for _, p := range pushes {
		w.pushCoord(ctx, p)
	}
	return &ack, nil
}

// evaluateIngest is ingest stage 2: fold freshly indexed observations into
// continuous-query answer sets and resident-track/prime matching, then run
// observation-time track-loss detection and continuous-answer expiry (frame
// clocks included, so silence still ticks). Serialized under w.evalMu —
// batches arrive in per-sender order, so evaluation order stays
// deterministic — and returns the updates to push to the coordinator.
func (w *Worker) evaluateIngest(evals []stagedObs, latest time.Time) []any {
	if len(evals) == 0 && latest.IsZero() {
		return nil
	}
	w.evalMu.Lock()
	defer w.evalMu.Unlock()
	var pushes []any
	for _, ev := range evals {
		// Continuous queries: incremental +/- evaluation.
		rec := ev.record()
		for _, cs := range w.continuous {
			if upd := cs.observe(rec); upd != nil {
				pushes = append(pushes, upd)
			}
		}
		// Tracking: resident tracks and armed primes.
		pushes = append(pushes, w.observeTracksLocked(ev.obs)...)
	}
	if !latest.IsZero() {
		pushes = append(pushes, w.detectLostTracksLocked(latest)...)
		pushes = append(pushes, w.expireContinuousLocked(latest.Add(-w.opts.LostAfter))...)
	}
	return pushes
}

// curEpoch reads the current assignment epoch (handlers that answer with it
// while holding only evalMu).
func (w *Worker) curEpoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

func (w *Worker) onRange(m *wire.RangeQuery) (any, error) {
	start := w.now()
	recs := w.store.RangeQuery(m.Rect, m.Window.From, m.Window.To)
	if primary := w.primaryCameras(); primary != nil {
		recs = slices.DeleteFunc(recs, func(r stindex.Record) bool { return !primary[r.Camera] })
	}
	out := &wire.RangePart{QueryID: m.QueryID}
	if m.Limit > 0 && len(recs) > m.Limit {
		recs = recs[:m.Limit]
		out.Truncated = true
	}
	// The answer is encoded here, once: the coordinator merges these bytes
	// and the client frame copies them. stindex.Record and wire.ResultRecord
	// share an underlying type, so each record encodes in place.
	out.Records.Grow(len(recs))
	for i := range recs {
		out.Records.Append((*wire.ResultRecord)(&recs[i]))
	}
	w.reg.Histogram("query.range").Observe(w.now().Sub(start))
	return out, nil
}

// primaryCameras returns the cameras this worker owns as primary, or nil
// when it holds no replicas and every stored record is primary. Queries drop
// records whose camera is missing from the set (a standby copy), so
// replicated data never duplicates an answer; a camera promoted after a
// failure is in the set, which is how standby history becomes visible.
// onAssign builds each set before publishing it under w.mu and never writes
// a published set again, so callers read the returned map without the lock.
func (w *Worker) primaryCameras() map[uint32]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.primary) == len(w.cameras) {
		return nil
	}
	return w.primary
}

func (w *Worker) onKNN(m *wire.KNNQuery) (any, error) {
	start := w.now()
	if m.K <= 0 {
		return &wire.Error{Code: wire.CodeBadRequest, Message: "knn: k must be positive"}, nil
	}
	var keep func(stindex.Record) bool
	if primary := w.primaryCameras(); primary != nil {
		keep = func(r stindex.Record) bool { return primary[r.Camera] }
	}
	ns := w.store.KNNBounded(m.Center, m.Window.From, m.Window.To, m.K, m.MaxDist2, keep)
	out := &wire.KNNResult{QueryID: m.QueryID, Records: make([]wire.KNNRecord, len(ns))}
	for i, n := range ns {
		out.Records[i] = wire.KNNRecord{ResultRecord: toWireRecord(n.Record), Dist2: n.Dist2}
	}
	w.reg.Histogram("query.knn").Observe(w.now().Sub(start))
	return out, nil
}

func (w *Worker) onCount(m *wire.CountQuery) (any, error) {
	if primary := w.primaryCameras(); primary != nil {
		n := 0
		for _, r := range w.store.RangeQuery(m.Rect, m.Window.From, m.Window.To) {
			if primary[r.Camera] {
				n++
			}
		}
		return &wire.CountResult{QueryID: m.QueryID, Count: n}, nil
	}
	return &wire.CountResult{QueryID: m.QueryID, Count: w.store.Count(m.Rect, m.Window.From, m.Window.To)}, nil
}

func (w *Worker) onTrajectory(m *wire.TrajectoryQuery) (any, error) {
	recs := w.store.TargetHistory(m.TargetID, m.Window.From, m.Window.To)
	return &wire.TrajectoryResult{QueryID: m.QueryID, Records: toWireRecords(recs)}, nil
}

func (w *Worker) onHeatmap(m *wire.HeatmapQuery) (any, error) {
	if !stindex.ValidCellSize(m.CellSize) {
		return &wire.Error{Code: wire.CodeBadRequest, Message: errHeatmapCellSize.Error()}, nil
	}
	var keep func(stindex.Record) bool // nil keeps the store's rollup path
	if primary := w.primaryCameras(); primary != nil {
		keep = func(r stindex.Record) bool { return primary[r.Camera] }
	}
	cells := w.store.Heatmap(m.Rect, m.Window.From, m.Window.To, m.CellSize, keep)
	out := &wire.HeatmapResult{QueryID: m.QueryID, CellSize: m.CellSize, Cells: make([]wire.HeatCell, len(cells))}
	for i, c := range cells {
		out.Cells[i] = wire.HeatCell{CX: c.CX, CY: c.CY, Count: c.Count}
	}
	return out, nil
}

// StatsSnapshot mirrors the transport-layer RPC counters into the registry
// and returns a full snapshot — the single source for the stats RPC and the
// /metrics exposition endpoint.
func (w *Worker) StatsSnapshot() metrics.RegistrySnapshot {
	mirrorRPCStats(w.reg, w.rpc.Stats())
	mirrorTierStats(w.reg, w.store.TierStats())
	return w.reg.Snapshot()
}

// mirrorTierStats copies the store's sealed-tier sizes and query-path
// counters into the registry as gauges, so /metrics and the stats RPC expose
// chunk residency (count, compressed bytes, records; each sealed record is
// encoded once) and how many sealed chunks the query path decoded versus
// answered without decoding (store.rollup_hits). All zeros when the store
// runs flat.
func mirrorTierStats(reg *metrics.Registry, ts stindex.TierStats) {
	reg.Gauge("store.sealed_chunks").Set(int64(ts.SealedChunks))
	reg.Gauge("store.sealed_bytes").Set(ts.SealedBytes)
	reg.Gauge("store.sealed_records").Set(int64(ts.SealedRecords))
	reg.Gauge("store.chunk_decodes").Set(int64(ts.QueryDecodes))
	reg.Gauge("store.rollup_hits").Set(int64(ts.RollupHits))
}

func (w *Worker) onStats() (any, error) {
	snap := w.StatsSnapshot()
	return &wire.StatsResult{
		Node:       w.id,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: histStatsOf(snap.Histograms),
	}, nil
}

// ReidSearch answers re-identification from the worker's identity state:
// every gallery identity whose prototype matches the probe at or above the
// threshold contributes its indexed sightings in the window, ordered by
// (Time, ObsID). The gallery and the store both forget by retention, so the
// search covers retention like every other query. Exported for in-process
// deployments; no RPC reaches it.
func (w *Worker) ReidSearch(probe vision.Feature, window wire.TimeWindow, threshold float64) []wire.ResultRecord {
	g := w.assoc.Gallery()
	matches, err := g.Match(probe, g.Len())
	if err != nil {
		return nil
	}
	var recs []stindex.Record
	for _, m := range matches {
		if m.Score < threshold {
			break // best first: the rest score lower
		}
		recs = append(recs, w.store.TargetHistory(w.idNamespace|m.ID, window.From, window.To)...)
	}
	out := toWireRecords(recs)
	sortWireRecords(out)
	return out
}

func toWireRecord(r stindex.Record) wire.ResultRecord {
	return wire.ResultRecord{
		ObsID:    r.ObsID,
		TargetID: r.TargetID,
		Camera:   r.Camera,
		Pos:      r.Pos,
		Time:     r.Time,
	}
}

func toWireRecords(rs []stindex.Record) []wire.ResultRecord {
	if len(rs) == 0 {
		return nil
	}
	out := make([]wire.ResultRecord, len(rs))
	for i, r := range rs {
		out[i] = toWireRecord(r)
	}
	return out
}
