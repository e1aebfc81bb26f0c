package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/metrics"
	"stcam/internal/stindex"
	"stcam/internal/wire"
)

// routeSlack grows query rectangles before camera-based worker routing, so
// observations displaced by detector position noise are never missed.
const routeSlack = 25.0

// Coordinator is the head node: it owns the camera registry and vision graph,
// partitions cameras across workers, routes and merges queries, distributes
// continuous queries, orchestrates tracking handoffs, and handles worker
// failure by reassignment.
//
// The coordinator doubles as the client gateway: application code calls its
// exported methods directly (examples and cmd/stcamctl go through these).
type Coordinator struct {
	addr        string
	transport   cluster.Transport
	rpc         *cluster.Resilient // resilience layer for all outbound calls
	opts        Options
	reg         *metrics.Registry
	membership  *cluster.Membership
	partitioner cluster.Partitioner
	network     *camera.Network

	server cluster.Server

	// ingest delivers proxied ingest batches (see proxyIngest).
	ingest *Ingester

	// ha is the replicated control-plane state; nil outside an HA group
	// (see ha.go). ha.mu and mu never nest in either direction.
	ha        *haState
	lifecycle sync.WaitGroup
	stopCh    chan struct{}
	stopOnce  sync.Once

	// gateway is the optional serving-plane front end (see gateway.go).
	gateway atomic.Pointer[gatewaySlot]

	mu         sync.Mutex
	epoch      uint64
	assignment cluster.Assignment
	replicas   map[uint32][]wire.NodeID
	camInfos   map[uint32]wire.CameraInfo
	continuous map[uint64]*coordContinuous
	tracks     map[uint64]*coordTrack

	// sumMu guards the per-node store sketches piggybacked on heartbeats,
	// which the pruned scatter path consults (see scatter.go). Leaf lock:
	// never held while acquiring mu or calling out.
	sumMu     sync.Mutex
	summaries map[wire.NodeID]nodeSummary

	nextQueryID atomic.Uint64
	nextTrackID atomic.Uint64
}

// coordContinuous is the coordinator's record of one standing query.
type coordContinuous struct {
	queryID uint64
	install wire.InstallContinuous
	ch      chan wire.ContinuousUpdate
}

// coordTrack is the coordinator's record of one active track.
type coordTrack struct {
	trackID    uint64
	owner      wire.NodeID
	lastCamera uint32
	feature    []float32
	lastSeen   time.Time
	lost       bool
	ch         chan wire.TrackUpdate
	handoffs   int
	primed     map[wire.NodeID]bool
}

// NewCoordinator constructs a coordinator. The partitioner may be nil, which
// selects spatial partitioning.
func NewCoordinator(addr string, transport cluster.Transport, p cluster.Partitioner, opts Options) *Coordinator {
	opts.fill()
	if p == nil {
		p = &cluster.SpatialPartitioner{}
	}
	reg := metrics.NewRegistry()
	c := &Coordinator{
		addr:        addr,
		transport:   transport,
		rpc:         resilientFor(transport, opts, reg),
		opts:        opts,
		reg:         reg,
		membership:  cluster.NewMembership(opts.HeartbeatTimeout),
		partitioner: p,
		network:     camera.NewNetwork(),
		stopCh:      make(chan struct{}),
		assignment:  make(cluster.Assignment),
		replicas:    make(map[uint32][]wire.NodeID),
		camInfos:    make(map[uint32]wire.CameraInfo),
		continuous:  make(map[uint64]*coordContinuous),
		tracks:      make(map[uint64]*coordTrack),
		summaries:   make(map[wire.NodeID]nodeSummary),
	}
	if len(opts.CoordinatorPeers) > 0 {
		peers := make(map[wire.NodeID]string, len(opts.CoordinatorPeers))
		for id, a := range opts.CoordinatorPeers {
			if id != opts.CoordinatorID {
				peers[id] = a
			}
		}
		c.ha = &haState{
			id:       opts.CoordinatorID,
			peers:    peers,
			ttl:      opts.LeaseInterval,
			standby:  opts.Standby,
			lease:    cluster.NewLease(opts.LeaseInterval),
			acks:     make(map[wire.NodeID]uint64),
			inFlight: make(map[wire.NodeID]bool),
			commitCh: make(chan struct{}),
		}
	}
	c.ingest = NewIngester(c, c.rpc)
	c.ingest.lanes = proxyLanes
	return c
}

// Start binds the coordinator's server and, in an HA group, starts the
// lease/replication loop.
func (c *Coordinator) Start() error {
	srv, err := c.transport.Serve(c.addr, c.handle)
	if err != nil {
		return fmt.Errorf("core: coordinator serve: %w", err)
	}
	c.server = srv
	if c.ha != nil {
		c.lifecycle.Add(1)
		go c.haLoop()
	}
	return nil
}

// now reads the injected clock (Options.Clock): the only sanctioned
// wall-clock source in this package, per the clockinject analyzer.
func (c *Coordinator) now() time.Time { return c.opts.Clock.Now() }

// Addr returns the bound address.
func (c *Coordinator) Addr() string {
	if c.server != nil {
		return c.server.Addr()
	}
	return c.addr
}

// Stop closes the server, the ingest proxy's lanes and all subscriber
// channels.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.lifecycle.Wait()
	if c.server != nil {
		c.server.Close()
	}
	c.ingest.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, cc := range c.continuous {
		close(cc.ch)
		delete(c.continuous, id)
	}
	c.reg.Gauge("continuous.active").Set(0)
	for id, tr := range c.tracks {
		close(tr.ch)
		delete(c.tracks, id)
	}
}

// Network exposes the camera topology (vision graph seeding).
func (c *Coordinator) Network() *camera.Network { return c.network }

// Metrics exposes the coordinator's instrumentation.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// handle dispatches inbound RPCs: worker control traffic, plus the
// client-facing query surface (remote clients send the same query messages a
// worker answers; the coordinator scatter-gathers and returns the merged
// result). Each request is timed into a per-kind rpc.serve histogram so the
// server-side latency distribution shows up in /metrics alongside the
// client-side rpc.call one.
func (c *Coordinator) handle(ctx context.Context, from string, req any) (any, error) {
	start := c.now()
	resp, err := c.dispatch(ctx, from, req)
	c.reg.Histogram("rpc.serve." + wire.KindOf(req).String()).Observe(c.now().Sub(start)) //lint:allow metricname per-kind latency series; cardinality bounded by the closed wire.MsgKind enum
	return resp, err
}

func (c *Coordinator) dispatch(ctx context.Context, _ string, req any) (any, error) {
	// HA protocol traffic is role-agnostic and handled first.
	switch m := req.(type) {
	case *wire.Replicate:
		return c.onReplicate(m)
	case *wire.LeaderQuery:
		return c.onLeaderQuery()
	}
	if c.IsStandby() {
		// Leader-only traffic is redirected; reads fall through and are
		// served from the replicated state (degraded mode: the standby's
		// membership view may lag, but availability beats completeness
		// during a failover window, and QueryMeta reports the shortfall).
		switch req.(type) {
		case *wire.Register, *wire.Heartbeat, *wire.AssignCameras, *wire.IngestBatch,
			*wire.ContinuousUpdate, *wire.TrackUpdate, *wire.TrackHandoff:
			return c.standbyReject()
		}
	}
	// The serving-plane gateway (if installed) sees client traffic after the
	// HA/standby filters: it can answer queries from cache, multiplex
	// subscriptions, or shed load. Unhandled requests fall through.
	if g := c.loadGateway(); g != nil {
		if resp, handled := g.Intercept(ctx, req); handled {
			return resp, nil
		}
	}
	switch m := req.(type) {
	case *wire.Register:
		c.membership.Register(m, c.now())
		c.dropSummary(m.Node) // a restarted worker's sketch and hbSeq start over
		c.reg.Counter("workers.registered").Inc()
		// The ack is gated on majority replication: a minority-partitioned
		// leader must not accept registrations that a failover would forget.
		// The worker re-registers on its next heartbeat (CodeMustRegister).
		if !c.haAppendWait(c.Epoch(), wire.ControlRecord{Op: wire.OpMember, Member: wire.MemberRecord{
			Node: m.Node, Addr: m.Addr, Capacity: m.Capacity,
		}}) {
			return &wire.Error{Code: wire.CodeUnavailable, Message: ErrNotCommitted.Error()}, nil
		}
		return &wire.RegisterAck{Accepted: true}, nil
	case *wire.Heartbeat:
		known := c.membership.Heartbeat(m, c.now())
		if !known {
			// Distinguishable "must re-register" answer: the worker resends
			// Register (coordinator-restart recovery) instead of hammering
			// heartbeats that never count.
			return &wire.Error{Code: wire.CodeMustRegister, Message: "heartbeat from unregistered node; re-register"}, nil
		}
		if m.Summary != nil {
			c.noteSummary(m.Node, m.Seq, m.Summary)
		}
		return &wire.HeartbeatAck{Epoch: c.Epoch()}, nil
	case *wire.ContinuousUpdate:
		c.onContinuousUpdate(m)
		return &wire.AssignAck{}, nil
	case *wire.TrackUpdate:
		c.onTrackUpdate(m)
		return &wire.AssignAck{}, nil
	case *wire.TrackHandoff:
		c.onTrackHandoff(m)
		return &wire.AssignAck{}, nil
	case *wire.RangeQuery:
		enc, meta, err := c.RangeMeta(ctx, m.Rect, m.Window, m.Limit)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.RangeResult{QueryID: m.QueryID, Encoded: enc, Truncated: meta.Truncated, Asked: meta.Asked, Answered: meta.Answered}, nil
	case *wire.KNNQuery:
		recs, meta, err := c.knnMeta(ctx, m.Center, m.Window, m.K, m.MaxDist2)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.KNNResult{QueryID: m.QueryID, Records: recs, Asked: meta.Asked, Answered: meta.Answered}, nil
	case *wire.CountQuery:
		n, meta, err := c.CountMeta(ctx, m.Rect, m.Window)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.CountResult{QueryID: m.QueryID, Count: n, Asked: meta.Asked, Answered: meta.Answered}, nil
	case *wire.TrajectoryQuery:
		recs, err := c.Trajectory(ctx, m.TargetID, m.Window)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.TrajectoryResult{QueryID: m.QueryID, Records: recs}, nil
	case *wire.HeatmapQuery:
		cells, err := c.Heatmap(ctx, m.Rect, m.Window, m.CellSize)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.HeatmapResult{QueryID: m.QueryID, CellSize: m.CellSize, Cells: cells}, nil
	case *wire.FilterQuery:
		recs, _, meta, err := c.Filter(ctx, *m)
		if err != nil {
			return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}, nil
		}
		return &wire.FilterResult{QueryID: m.QueryID, Records: recs, Plan: "merged", Truncated: meta.Truncated}, nil
	case *wire.AssignCameras:
		// Remote camera registration (cmd/stcam-sim): epoch is ignored on the
		// inbound path; AddCameras recomputes and pushes the real epoch.
		if err := c.AddCameras(ctx, m.Cameras, routeSlack); err != nil {
			return &wire.Error{Code: wire.CodeUnavailable, Message: err.Error()}, nil
		}
		return &wire.AssignAck{Epoch: c.Epoch(), Accepted: len(m.Cameras)}, nil
	case *wire.IngestBatch:
		return c.proxyIngest(ctx, m)
	case *wire.ClusterStatsQuery:
		return c.ClusterStats(ctx), nil
	default:
		return &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("coordinator: unexpected %T", req)}, nil
	}
}

// proxyLanes is the number of sequenced lanes the ingest proxy keeps per
// worker. Proxied frames come from independent clients and need no mutual
// order, so spreading them over lanes lets up to proxyLanes of them be in
// flight to one worker at once, each still applied exactly once under its
// lane's own Source.
const proxyLanes = 4

// proxyIngest is the ingest proxy for remote clients: it routes a
// multi-camera batch through the coordinator's own Ingester, so proxied
// observations reach their owners (primary and replicas) through the same
// coalescing and sequenced lanes as direct ingest, and a retried or
// duplicated forward is applied once. Production feeds stream to workers
// directly; this path trades a hop for client simplicity.
func (c *Coordinator) proxyIngest(ctx context.Context, m *wire.IngestBatch) (any, error) {
	if len(m.Observations) == 0 {
		return &wire.IngestAck{}, nil
	}
	byAddr, unrouted := coalesce(c.ingest, m.Observations, func(obs wire.Observation) wire.Observation {
		if obs.Camera == 0 {
			// Legacy single-camera batches may omit per-observation routing;
			// the worker checks ownership per observation, so the forwarded
			// copy carries the hint. The caller's batch stays untouched: in
			// process it is the client's own.
			obs.Camera = m.Camera
		}
		return obs
	})
	if len(byAddr) == 0 {
		return &wire.Error{Code: wire.CodeNotFound, Message: fmt.Sprintf("no live owner for any of %d observations", len(m.Observations))}, nil
	}
	// Invalidate before forwarding: even a partially applied forward makes
	// the receiving workers' sketches unable to prove absence of this data.
	c.invalidateSummariesAt(byAddr)
	ack, err := c.ingest.deliver(ctx, byAddr, m.FrameTime)
	if err != nil {
		return nil, err
	}
	ack.Rejected += unrouted
	return &ack, nil
}

// --- camera management -----------------------------------------------------

// AddCameras registers cameras, reseeds geometric vision-graph edges within
// maxGap, recomputes the partition over live workers, and pushes assignments.
func (c *Coordinator) AddCameras(ctx context.Context, infos []wire.CameraInfo, maxGap float64) error {
	for _, ci := range infos {
		c.network.Add(camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range))
	}
	c.network.SeedGeometricEdges(maxGap)
	c.network.BuildIndex(0)
	c.mu.Lock()
	for _, ci := range infos {
		c.camInfos[ci.ID] = ci
	}
	c.mu.Unlock()
	if !c.haAppendWait(c.Epoch(), wire.ControlRecord{Op: wire.OpCameras, Cameras: infos}) {
		return fmt.Errorf("core: add cameras: %w", ErrNotCommitted)
	}
	return c.Reassign(ctx)
}

// Reassign recomputes the camera partition over the currently live workers
// and pushes it, bumping the epoch. Continuous queries are reinstalled on the
// new owners.
func (c *Coordinator) Reassign(ctx context.Context) error {
	alive := c.membership.Alive()
	if len(alive) == 0 {
		return errNoLiveWorkers
	}
	nodes := make([]wire.NodeID, len(alive))
	addrByNode := make(map[wire.NodeID]string, len(alive))
	for i, m := range alive {
		nodes[i] = m.Node
		addrByNode[m.Node] = m.Addr
	}

	c.mu.Lock()
	cams := make([]wire.CameraInfo, 0, len(c.camInfos))
	for _, ci := range c.camInfos {
		cams = append(cams, ci)
	}
	sort.Slice(cams, func(i, j int) bool { return cams[i].ID < cams[j].ID })
	c.epoch++
	epoch := c.epoch
	proposed := c.partitioner.Partition(cams, nodes)
	aliveSet := make(map[wire.NodeID]bool, len(nodes))
	for _, n := range nodes {
		aliveSet[n] = true
	}
	// Stability-first assignment: a camera stays with its live owner (its
	// history lives there); a camera whose owner died is promoted to a live
	// replica holder when one exists (standby history becomes authoritative);
	// only otherwise does the partitioner's fresh proposal apply.
	assignment := make(cluster.Assignment, len(cams))
	for _, ci := range cams {
		switch {
		case aliveSet[c.assignment[ci.ID]]:
			assignment[ci.ID] = c.assignment[ci.ID]
		case c.promotableReplicaLocked(ci.ID, aliveSet) != "":
			assignment[ci.ID] = c.promotableReplicaLocked(ci.ID, aliveSet)
		default:
			assignment[ci.ID] = proposed[ci.ID]
		}
	}
	c.assignment = assignment
	c.replicas = replicaPlacement(cams, nodes, assignment, c.opts.Replicas)
	camsByNode := make(map[wire.NodeID][]wire.CameraInfo)
	replicasByNode := make(map[wire.NodeID][]wire.CameraInfo)
	for _, ci := range cams {
		n := assignment[ci.ID]
		camsByNode[n] = append(camsByNode[n], ci)
		for _, rn := range c.replicas[ci.ID] {
			replicasByNode[rn] = append(replicasByNode[rn], ci)
		}
	}
	// Continuous queries to reinstall.
	conts := make([]*coordContinuous, 0, len(c.continuous))
	for _, cc := range c.continuous {
		conts = append(conts, cc)
	}
	assignRec := c.assignRecordLocked()
	c.mu.Unlock()
	// The new assignment must be majority-durable before any worker acts on
	// it: a minority-partitioned leader pushing an epoch a failover forgets
	// would leave workers fenced on an epoch no future leader knows.
	if !c.haAppendWait(epoch, assignRec) {
		return fmt.Errorf("core: reassign to epoch %d: %w", epoch, ErrNotCommitted)
	}

	var firstErr error
	for _, n := range nodes {
		msg := &wire.AssignCameras{Epoch: epoch, Cameras: camsByNode[n], Replicas: replicasByNode[n]}
		if _, err := c.rpc.Call(ctx, addrByNode[n], msg); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: assign to %s: %w", n, err)
		}
	}
	// Reinstall continuous queries on the owners under the new assignment.
	for _, cc := range conts {
		c.installContinuousOnWorkers(ctx, cc)
	}
	c.reg.Counter("assignments.pushed").Inc()
	return firstErr
}

// Assignment returns a copy of the current camera→worker map.
func (c *Coordinator) Assignment() cluster.Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(cluster.Assignment, len(c.assignment))
	for k, v := range c.assignment {
		out[k] = v
	}
	return out
}

// promotableReplicaLocked returns a live replica holder for a camera, or ""
// when none exists. Caller holds c.mu.
func (c *Coordinator) promotableReplicaLocked(cam uint32, alive map[wire.NodeID]bool) wire.NodeID {
	for _, n := range c.replicas[cam] {
		if alive[n] {
			return n
		}
	}
	return ""
}

// replicaPlacement chooses, per camera, `count` standby nodes distinct from
// the primary, by rendezvous hashing — stable placement under membership
// churn, deterministic across coordinator restarts.
func replicaPlacement(cams []wire.CameraInfo, nodes []wire.NodeID, primary cluster.Assignment, count int) map[uint32][]wire.NodeID {
	out := make(map[uint32][]wire.NodeID, len(cams))
	if count <= 0 || len(nodes) < 2 {
		return out
	}
	if count > len(nodes)-1 {
		count = len(nodes) - 1
	}
	for _, ci := range cams {
		type scored struct {
			node  wire.NodeID
			score uint64
		}
		cands := make([]scored, 0, len(nodes))
		for _, n := range nodes {
			if n == primary[ci.ID] {
				continue
			}
			cands = append(cands, scored{n, cluster.RendezvousScore(ci.ID, n)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].node < cands[j].node
		})
		picked := make([]wire.NodeID, 0, count)
		for i := 0; i < count && i < len(cands); i++ {
			picked = append(picked, cands[i].node)
		}
		out[ci.ID] = picked
	}
	return out
}

// RoutesFor returns the serve addresses of every worker that should receive a
// camera's stream: the primary first, then any replicas. Used by ingest
// drivers when replication is enabled.
func (c *Coordinator) RoutesFor(cam uint32) []string {
	c.mu.Lock()
	nodes := make([]wire.NodeID, 0, 1+len(c.replicas[cam]))
	if n, ok := c.assignment[cam]; ok {
		nodes = append(nodes, n)
	}
	nodes = append(nodes, c.replicas[cam]...)
	c.mu.Unlock()
	var out []string
	for _, n := range nodes {
		if m, ok := c.membership.Get(n); ok && m.Alive {
			out = append(out, m.Addr)
		}
	}
	return out
}

// RouteFor returns the serve address of the worker owning a camera.
func (c *Coordinator) RouteFor(cam uint32) (string, bool) {
	c.mu.Lock()
	node, ok := c.assignment[cam]
	c.mu.Unlock()
	if !ok {
		return "", false
	}
	m, ok := c.membership.Get(node)
	if !ok || !m.Alive {
		return "", false
	}
	return m.Addr, true
}

// --- queries ----------------------------------------------------------------

// workersFor returns the serve addresses of live workers owning cameras whose
// FOV could have produced observations in r (grown by the routing slack).
func (c *Coordinator) workersFor(r geo.Rect) []string {
	return addrsOfTargets(c.targetsFor(r))
}

// allWorkers returns every live worker address.
func (c *Coordinator) allWorkers() []string {
	alive := c.membership.Alive()
	out := make([]string, len(alive))
	for i, m := range alive {
		out[i] = m.Addr
	}
	return out
}

// Range runs a distributed spatio-temporal range query and merges the
// results (time order, ObsID tie-break). It is the one place a range answer
// is decoded into records: the wire surface sends RangeMeta's bytes as they
// are.
func (c *Coordinator) Range(ctx context.Context, rect geo.Rect, window wire.TimeWindow, limit int) ([]wire.ResultRecord, error) {
	enc, _, err := c.RangeMeta(ctx, rect, window, limit)
	if err != nil {
		return nil, err
	}
	return enc.Decode()
}

// RangeMeta is Range with the answer left encoded, plus answer-completeness
// metadata: how many workers the query fanned out to, how many answered
// before their deadline, and how many were skipped because their heartbeat
// sketch proved them empty for this rect and window. A completeness below
// 1.0 means the merged records are a partial view taken during a failure or
// partition; pruned workers do not degrade completeness (they provably held
// nothing). meta.Truncated reports that limit cut the answer. The records are
// the workers' encodings merged by copying bytes; nothing here decodes or
// re-encodes them.
func (c *Coordinator) RangeMeta(ctx context.Context, rect geo.Rect, window wire.TimeWindow, limit int) (wire.EncodedRecords, QueryMeta, error) {
	start := c.now()
	defer func() { c.reg.Histogram("query.range").Observe(c.now().Sub(start)) }()
	q := &wire.RangeQuery{QueryID: c.nextQueryID.Add(1), Rect: rect, Window: window, Limit: limit}
	targets, pruned := c.pruneTargets(c.targetsFor(rect), rect, window)
	resps, meta := c.scatter(ctx, addrsOfTargets(targets), q)
	meta.Pruned = pruned
	parts := make([]*wire.RecordBlock, 0, len(resps))
	for _, resp := range resps {
		if rp, ok := resp.(*wire.RangePart); ok {
			parts = append(parts, &rp.Records)
			meta.Truncated = meta.Truncated || rp.Truncated
		}
	}
	enc, cut := mergeParts(parts, limit)
	meta.Truncated = meta.Truncated || cut
	return enc, meta, nil
}

// KNN runs the distributed k-nearest query: a two-phase pruned search that
// probes the workers whose heartbeat sketches place them nearest the query
// point first and expands only while the kth-best distance found so far
// cannot rule the next worker out (see knnMeta in scatter.go; with
// DisablePrune every worker returns its local top-k in one broadcast round).
func (c *Coordinator) KNN(ctx context.Context, center geo.Point, window wire.TimeWindow, k int) ([]wire.KNNRecord, error) {
	recs, _, err := c.knnMeta(ctx, center, window, k, 0)
	return recs, err
}

// KNNMeta is KNN plus answer-completeness metadata, mirroring RangeMeta.
func (c *Coordinator) KNNMeta(ctx context.Context, center geo.Point, window wire.TimeWindow, k int) ([]wire.KNNRecord, QueryMeta, error) {
	return c.knnMeta(ctx, center, window, k, 0)
}

// Count runs a distributed count query.
func (c *Coordinator) Count(ctx context.Context, rect geo.Rect, window wire.TimeWindow) (int, error) {
	n, _, err := c.CountMeta(ctx, rect, window)
	return n, err
}

// CountMeta is Count plus answer-completeness metadata; a completeness below
// 1.0 means the total undercounts (some workers never answered).
func (c *Coordinator) CountMeta(ctx context.Context, rect geo.Rect, window wire.TimeWindow) (int, QueryMeta, error) {
	q := &wire.CountQuery{QueryID: c.nextQueryID.Add(1), Rect: rect, Window: window}
	targets, pruned := c.pruneTargets(c.targetsFor(rect), rect, window)
	resps, meta := c.scatter(ctx, addrsOfTargets(targets), q)
	meta.Pruned = pruned
	total := 0
	for _, resp := range resps {
		if cr, ok := resp.(*wire.CountResult); ok {
			total += cr.Count
		}
	}
	return total, meta, nil
}

// Filter runs a distributed multi-predicate query (range × cameras ×
// target); each worker plans its own evaluation order adaptively. The merged
// records come back in time order with the per-worker plans attached, and
// meta reports completeness and, as for RangeMeta, whether q.Limit cut the
// answer at a worker or at the merge.
func (c *Coordinator) Filter(ctx context.Context, q wire.FilterQuery) ([]wire.ResultRecord, map[string]int, QueryMeta, error) {
	q.QueryID = c.nextQueryID.Add(1)
	var merged []wire.ResultRecord
	plans := make(map[string]int)
	targets, pruned := c.pruneTargets(c.targetsFor(q.Rect), q.Rect, q.Window)
	resps, meta := c.scatter(ctx, addrsOfTargets(targets), &q)
	meta.Pruned = pruned
	for _, resp := range resps {
		if fr, ok := resp.(*wire.FilterResult); ok {
			merged = append(merged, fr.Records...)
			plans[fr.Plan]++
			meta.Truncated = meta.Truncated || fr.Truncated
		}
	}
	sortWireRecords(merged)
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
		meta.Truncated = true
	}
	return merged, plans, meta, nil
}

// Heatmap runs a distributed density aggregation: each relevant worker bins
// its observations into cells of the given size; the coordinator sums the
// partial maps. Cells are returned sorted by (CY, CX) for stable output.
func (c *Coordinator) Heatmap(ctx context.Context, rect geo.Rect, window wire.TimeWindow, cellSize float64) ([]wire.HeatCell, error) {
	cells, _, err := c.HeatmapMeta(ctx, rect, window, cellSize)
	return cells, err
}

// errHeatmapCellSize rejects a heatmap cell size that is NaN, infinite or not
// positive, at the coordinator and at each worker.
var errHeatmapCellSize = errors.New("core: heatmap cell size must be finite and positive")

// HeatmapMeta is Heatmap plus answer-completeness metadata, mirroring
// RangeMeta; a completeness below 1.0 means some workers' counts are missing.
func (c *Coordinator) HeatmapMeta(ctx context.Context, rect geo.Rect, window wire.TimeWindow, cellSize float64) ([]wire.HeatCell, QueryMeta, error) {
	if !stindex.ValidCellSize(cellSize) {
		return nil, QueryMeta{}, errHeatmapCellSize
	}
	q := &wire.HeatmapQuery{QueryID: c.nextQueryID.Add(1), Rect: rect, Window: window, CellSize: cellSize}
	acc := make(map[[2]int32]int64)
	targets, pruned := c.pruneTargets(c.targetsFor(rect), rect, window)
	resps, meta := c.scatter(ctx, addrsOfTargets(targets), q)
	meta.Pruned = pruned
	for _, resp := range resps {
		hr, ok := resp.(*wire.HeatmapResult)
		if !ok {
			continue
		}
		for _, cell := range hr.Cells {
			acc[[2]int32{cell.CX, cell.CY}] += cell.Count
		}
	}
	out := make([]wire.HeatCell, 0, len(acc))
	for key, n := range acc {
		out = append(out, wire.HeatCell{CX: key[0], CY: key[1], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CY != out[j].CY {
			return out[i].CY < out[j].CY
		}
		return out[i].CX < out[j].CX
	})
	return out, meta, nil
}

// Trajectory fetches a target's observation history. Target IDs are
// worker-namespaced, so exactly one worker holds each; the query still fans
// out because the coordinator does not track the namespace map.
func (c *Coordinator) Trajectory(ctx context.Context, targetID uint64, window wire.TimeWindow) ([]wire.ResultRecord, error) {
	q := &wire.TrajectoryQuery{QueryID: c.nextQueryID.Add(1), TargetID: targetID, Window: window}
	var merged []wire.ResultRecord
	resps, _ := c.scatter(ctx, c.allWorkers(), q)
	for _, resp := range resps {
		if tr, ok := resp.(*wire.TrajectoryResult); ok {
			merged = append(merged, tr.Records...)
		}
	}
	sortWireRecords(merged)
	return merged, nil
}

// scatter fans a request out to workers concurrently through the resilience
// layer and collects the non-error responses, reporting how many of the asked
// workers actually answered. Unreachable workers degrade the answer rather
// than failing it (availability over completeness during partitions); callers
// that care inspect the returned QueryMeta.
func (c *Coordinator) scatter(ctx context.Context, addrs []string, req any) ([]any, QueryMeta) {
	meta := QueryMeta{Asked: len(addrs)}
	if len(addrs) == 0 {
		return nil, meta
	}
	out := make([]any, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			resp, err := c.rpc.Call(ctx, addr, req)
			if err != nil {
				c.reg.Counter("scatter.errors").Inc()
				return
			}
			out[i] = resp
		}(i, addr)
	}
	wg.Wait()
	var ok []any
	for _, r := range out {
		if r != nil {
			ok = append(ok, r)
		}
	}
	meta.Answered = len(ok)
	c.reg.Counter("scatter.asked").Add(int64(meta.Asked))
	c.reg.Counter("scatter.answered").Add(int64(meta.Answered))
	if meta.Answered < meta.Asked {
		c.reg.Counter("scatter.partial").Inc()
	}
	c.reg.Gauge("scatter.completeness_pm").Set(int64(meta.Completeness() * 1000))
	return ok, meta
}

func sortWireRecords(rs []wire.ResultRecord) {
	sort.Slice(rs, func(i, j int) bool {
		if !rs[i].Time.Equal(rs[j].Time) {
			return rs[i].Time.Before(rs[j].Time)
		}
		return rs[i].ObsID < rs[j].ObsID
	})
}

// --- continuous queries ------------------------------------------------------

// InstallContinuous registers a standing query; incremental updates arrive on
// the returned channel until RemoveContinuous. The channel is buffered;
// updates are dropped (and counted) if the subscriber lags.
func (c *Coordinator) InstallContinuous(ctx context.Context, kind wire.ContinuousKind, rect geo.Rect, threshold int) (uint64, <-chan wire.ContinuousUpdate, error) {
	id := c.nextQueryID.Add(1)
	cc := &coordContinuous{
		queryID: id,
		install: wire.InstallContinuous{QueryID: id, Kind: kind, Rect: rect, Threshold: threshold},
		ch:      make(chan wire.ContinuousUpdate, 1024),
	}
	c.mu.Lock()
	c.continuous[id] = cc
	c.reg.Gauge("continuous.active").Set(int64(len(c.continuous)))
	c.mu.Unlock()
	c.installContinuousOnWorkers(ctx, cc)
	return id, cc.ch, nil
}

func (c *Coordinator) installContinuousOnWorkers(ctx context.Context, cc *coordContinuous) {
	addrs := c.workersFor(cc.install.Rect)
	for _, addr := range addrs {
		if _, err := c.rpc.Call(ctx, addr, &cc.install); err != nil {
			c.reg.Counter("continuous.install_errors").Inc()
		}
	}
}

// RemoveContinuous uninstalls a standing query and closes its channel.
func (c *Coordinator) RemoveContinuous(ctx context.Context, id uint64) error {
	c.mu.Lock()
	cc, ok := c.continuous[id]
	if ok {
		delete(c.continuous, id)
		c.reg.Gauge("continuous.active").Set(int64(len(c.continuous)))
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: continuous query %d not found", id)
	}
	for _, addr := range c.allWorkers() {
		c.rpc.Call(ctx, addr, &wire.RemoveContinuous{QueryID: id}) //nolint:errcheck // best-effort uninstall
	}
	close(cc.ch)
	return nil
}

// onContinuousUpdate delivers a worker's update to the query's channel. The
// send stays under c.mu and never blocks: every closer deletes the query under
// c.mu before closing its channel, so a channel found here is still open.
func (c *Coordinator) onContinuousUpdate(m *wire.ContinuousUpdate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc, ok := c.continuous[m.QueryID]
	if !ok {
		return
	}
	select {
	case cc.ch <- *m:
	default:
		c.reg.Counter("continuous.dropped").Inc()
	}
}

// --- tracking ----------------------------------------------------------------

// StartTrack begins cross-camera tracking of a target sighted at the given
// camera with the given appearance. Updates stream on the returned channel.
func (c *Coordinator) StartTrack(ctx context.Context, cam uint32, feature []float32, at time.Time) (uint64, <-chan wire.TrackUpdate, error) {
	addr, ok := c.RouteFor(cam)
	if !ok {
		return 0, nil, fmt.Errorf("core: camera %d has no live owner", cam)
	}
	id := c.nextTrackID.Add(1)
	tr := &coordTrack{
		trackID:    id,
		lastCamera: cam,
		feature:    feature,
		lastSeen:   at,
		ch:         make(chan wire.TrackUpdate, 1024),
	}
	c.mu.Lock()
	node := c.assignment[cam]
	tr.owner = node
	c.tracks[id] = tr
	c.mu.Unlock()
	if _, err := c.rpc.Call(ctx, addr, &wire.TrackStart{TrackID: id, Camera: cam, Feature: feature, Time: at}); err != nil {
		c.mu.Lock()
		delete(c.tracks, id)
		c.mu.Unlock()
		close(tr.ch)
		return 0, nil, fmt.Errorf("core: track start: %w", err)
	}
	c.mu.Lock()
	rec := trackRecordOf(tr)
	c.mu.Unlock()
	// Ack only once a majority holds the track record; otherwise unwind so
	// the client never acts on a track a failover would forget.
	if !c.haAppendWait(c.Epoch(), rec) {
		c.mu.Lock()
		delete(c.tracks, id)
		c.mu.Unlock()
		close(tr.ch)
		c.rpc.Call(ctx, addr, &wire.TrackStop{TrackID: id}) //nolint:errcheck // best-effort unwind
		return 0, nil, fmt.Errorf("core: track start: %w", ErrNotCommitted)
	}
	c.reg.Gauge("tracks.active").Set(int64(c.trackCount()))
	return id, tr.ch, nil
}

// StopTrack cancels a track everywhere and closes its channel.
//
//lint:allow testonly pairs StartTrack in the public API; the tracking end-to-end benchmark will call it
func (c *Coordinator) StopTrack(ctx context.Context, id uint64) error {
	c.mu.Lock()
	tr, ok := c.tracks[id]
	if ok {
		delete(c.tracks, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: track %d not found", id)
	}
	for _, addr := range c.allWorkers() {
		c.rpc.Call(ctx, addr, &wire.TrackStop{TrackID: id}) //nolint:errcheck // best-effort cancel
	}
	close(tr.ch)
	// The stop already happened locally and on the workers; the error tells
	// the caller the removal is not majority-durable — a failover may
	// resurrect the registry entry until a later stop or sweep clears it.
	if !c.haAppendWait(c.Epoch(), wire.ControlRecord{Op: wire.OpTrackRemove, Track: wire.TrackRecord{TrackID: id}}) {
		return fmt.Errorf("core: track stop %d: %w", id, ErrNotCommitted)
	}
	c.reg.Gauge("tracks.active").Set(int64(c.trackCount()))
	return nil
}

// TrackInfo reports a track's current owner and handoff count.
func (c *Coordinator) TrackInfo(id uint64) (owner wire.NodeID, lastCamera uint32, handoffs int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.tracks[id]
	if !ok {
		return "", 0, 0, false
	}
	return tr.owner, tr.lastCamera, tr.handoffs, true
}

func (c *Coordinator) trackCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tracks)
}

func (c *Coordinator) onTrackUpdate(m *wire.TrackUpdate) {
	c.mu.Lock()
	tr, ok := c.tracks[m.TrackID]
	var stale []wire.NodeID
	var owner wire.NodeID
	if ok {
		tr.lastCamera = m.Camera
		tr.lastSeen = m.Time
		tr.lost = m.Lost
		if !m.Lost {
			// The owner re-sighted the target while a handoff was in flight:
			// the peer primes armed by beginHandoff are now stale. Revoke them
			// before one matches a look-alike and forks the track.
			if len(tr.primed) > 0 {
				for n := range tr.primed {
					stale = append(stale, n)
				}
				tr.primed = nil
				owner = tr.owner
			}
		}
		// Sent under c.mu for the reason onContinuousUpdate gives.
		select {
		case tr.ch <- *m:
		default:
			c.reg.Counter("tracks.dropped_updates").Inc()
		}
	}
	c.mu.Unlock()
	if len(stale) > 0 {
		c.reg.Counter("handoff.aborted").Inc()
		c.cancelPrimes(context.Background(), m.TrackID, stale, owner)
	}
}

// cancelPrimes sends TrackStop to every node that still has a prime armed for
// the track, except keep (the node that owns or just claimed it). Cancellation
// is best-effort: a node whose prime already expired answers NotFound, which
// is fine — the goal is that no armed prime outlives the handoff it served.
func (c *Coordinator) cancelPrimes(ctx context.Context, trackID uint64, nodes []wire.NodeID, keep wire.NodeID) {
	for _, n := range nodes {
		if n == keep {
			continue
		}
		mem, ok := c.membership.Get(n)
		if !ok || !mem.Alive {
			continue
		}
		if _, err := c.rpc.Call(ctx, mem.Addr, &wire.TrackStop{TrackID: trackID}); err != nil {
			c.reg.Counter("handoff.prime_cancel_errors").Inc()
		} else {
			c.reg.Counter("handoff.primes_canceled").Inc()
		}
	}
}

// onTrackHandoff handles both halves of the handoff protocol:
//   - FromCamera set, ToCamera zero: the owner lost the target; prime the
//     vision-graph neighbors (or everyone, under the broadcast baseline).
//   - ToCamera set: a primed worker re-acquired the target and claims it.
func (c *Coordinator) onTrackHandoff(m *wire.TrackHandoff) {
	if m.ToCamera != 0 {
		c.completeHandoff(m)
		return
	}
	c.beginHandoff(m)
}

func (c *Coordinator) beginHandoff(m *wire.TrackHandoff) {
	c.mu.Lock()
	tr, ok := c.tracks[m.TrackID]
	c.mu.Unlock()
	if !ok {
		return
	}
	c.reg.Counter("handoff.begun").Inc()

	var camIDs []uint32
	if c.opts.BroadcastHandoff {
		for _, cid := range c.network.IDs() {
			camIDs = append(camIDs, uint32(cid))
		}
	} else {
		for _, cid := range c.network.Neighbors(camera.ID(m.FromCamera)) {
			camIDs = append(camIDs, uint32(cid))
		}
	}
	if len(camIDs) == 0 {
		return
	}
	// Group prime targets by owning worker.
	c.mu.Lock()
	byNode := make(map[wire.NodeID][]uint32)
	for _, cid := range camIDs {
		if n, ok := c.assignment[cid]; ok {
			byNode[n] = append(byNode[n], cid)
		}
	}
	c.mu.Unlock()
	prime := &wire.TrackPrime{
		TrackID: m.TrackID,
		Feature: tr.feature,
		Expires: m.Time.Add(c.opts.PrimeTTL),
	}
	ctx := context.Background()
	var primed []wire.NodeID
	for node, cams := range byNode {
		mem, ok := c.membership.Get(node)
		if !ok || !mem.Alive {
			continue
		}
		p := *prime
		p.Cameras = cams
		if _, err := c.rpc.Call(ctx, mem.Addr, &p); err != nil {
			c.reg.Counter("handoff.prime_errors").Inc()
		} else {
			c.reg.Counter("handoff.primes_sent").Inc()
		}
		// Recorded even when the RPC errored: a timed-out prime may still
		// have armed on the peer, and cancellation is idempotent.
		primed = append(primed, node)
	}
	c.mu.Lock()
	if cur, ok := c.tracks[m.TrackID]; ok && cur == tr {
		if tr.primed == nil {
			tr.primed = make(map[wire.NodeID]bool, len(primed))
		}
		for _, n := range primed {
			tr.primed[n] = true
		}
	}
	c.mu.Unlock()
}

func (c *Coordinator) completeHandoff(m *wire.TrackHandoff) {
	c.mu.Lock()
	tr, ok := c.tracks[m.TrackID]
	var prevOwner, newOwner wire.NodeID
	var prevCamera uint32
	var prevSeen time.Time
	var losers []wire.NodeID
	if ok {
		prevOwner = tr.owner
		prevCamera = tr.lastCamera
		prevSeen = tr.lastSeen
		if n, k := c.assignment[m.ToCamera]; k {
			newOwner = n
			tr.owner = n
		}
		tr.lastCamera = m.ToCamera
		tr.lastSeen = m.Time
		tr.feature = m.Feature
		tr.handoffs++
		// The race is settled: every peer that was primed but did not claim
		// still has a live prime that could match a look-alike later. The
		// previous owner is excluded here because the ownership-move path
		// below already stops its resident copy (and its prime with it).
		for n := range tr.primed {
			if n != prevOwner {
				losers = append(losers, n)
			}
		}
		tr.primed = nil
	}
	var rec wire.ControlRecord
	if ok {
		rec = trackRecordOf(tr)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	// Deliberately async (no majority wait): the handoff already happened on
	// the workers, so refusing the push could not undo it, and blocking the
	// worker's push RPC on replication would stall the data plane. A record
	// lost to failover leaves a stale owner the next sweep re-recovers.
	c.haAppend(c.Epoch(), rec)
	c.reg.Counter("handoff.completed").Inc()
	// Record the learned transit edge for the vision graph.
	if prevCamera != 0 && prevCamera != m.ToCamera {
		//nolint:errcheck // learning is best-effort
		c.network.ObserveTransit(camera.ID(prevCamera), camera.ID(m.ToCamera), m.Time.Sub(prevSeen).Seconds())
	}
	// Stop the previous owner's resident copy when ownership moved.
	if prevOwner != "" && prevOwner != newOwner {
		if mem, k := c.membership.Get(prevOwner); k && mem.Alive {
			c.rpc.Call(context.Background(), mem.Addr, &wire.TrackStop{TrackID: m.TrackID}) //nolint:errcheck // best-effort
		}
	}
	// Revoke the losing primes (the claimant consumed its own on claim).
	c.cancelPrimes(context.Background(), m.TrackID, losers, newOwner)
}

// --- failure handling ---------------------------------------------------------

// Sweep checks worker liveness; newly dead workers trigger reassignment of
// their cameras and re-priming of their resident tracks. Returns the members
// that died in this sweep. Orphaned tracks — owner not alive — are retried on
// every sweep, not just the one where the owner died, so a failed recovery
// RPC heals on the next tick instead of stranding the track.
func (c *Coordinator) Sweep(ctx context.Context, now time.Time) []cluster.Member {
	if c.IsStandby() {
		// No heartbeats flow to a standby; sweeping its replicated
		// membership view would only declare a healthy fleet dead.
		return nil
	}
	died := c.membership.Sweep(now)
	if len(died) > 0 {
		c.reg.Counter("workers.died").Add(int64(len(died)))
		if err := c.Reassign(ctx); err != nil {
			c.reg.Counter("reassign.errors").Inc()
		}
	}
	// Tracks whose owner is not alive: restart them at their last camera's
	// new owner using the last known appearance. Liveness, epoch, and each
	// orphan's replacement owner are snapshotted at one instant per pass:
	// the recovery RPC goes to exactly the snapshotted node, and the
	// ownership commit re-validates the epoch so a Reassign racing the pass
	// invalidates the commit instead of recording an owner read from a
	// superseded assignment (the old code re-read c.assignment after the
	// RPC, which could disagree with the address the RPC went to).
	aliveMembers := c.membership.Alive()
	alive := make(map[wire.NodeID]bool, len(aliveMembers))
	addrOf := make(map[wire.NodeID]string, len(aliveMembers))
	for _, m := range aliveMembers {
		alive[m.Node] = true
		addrOf[m.Node] = m.Addr
	}
	type orphanPlan struct {
		tr   *coordTrack
		node wire.NodeID
		addr string
		msg  *wire.TrackStart
	}
	c.mu.Lock()
	epoch := c.epoch
	var plans []orphanPlan
	for _, tr := range c.tracks {
		if alive[tr.owner] {
			continue
		}
		node, ok := c.assignment[tr.lastCamera]
		if !ok || !alive[node] {
			continue
		}
		plans = append(plans, orphanPlan{
			tr:   tr,
			node: node,
			addr: addrOf[node],
			msg:  &wire.TrackStart{TrackID: tr.trackID, Camera: tr.lastCamera, Feature: tr.feature, Time: tr.lastSeen},
		})
	}
	c.mu.Unlock()
	for _, p := range plans {
		if _, err := c.rpc.Call(ctx, p.addr, p.msg); err != nil {
			// Ownership is committed only once the replacement worker has
			// accepted the track. On failure the record keeps its dead owner,
			// so the next sweep sees it as orphaned and retries, instead of
			// the track pointing at a worker that never heard of it.
			c.reg.Counter("tracks.recover_errors").Inc()
			continue
		}
		var rec wire.ControlRecord
		committed := false
		c.mu.Lock()
		if c.tracks[p.tr.trackID] == p.tr && c.epoch == epoch {
			p.tr.owner = p.node
			rec = trackRecordOf(p.tr)
			committed = true
		}
		c.mu.Unlock()
		if committed {
			// Async like the handoff path: the recovery is leader-internal
			// (no client to ack), and a record lost to failover just means
			// the next leader's sweep recovers the same orphan again.
			c.haAppend(epoch, rec)
			c.reg.Counter("tracks.recovered").Inc()
		}
	}
	if len(died) == 0 {
		return nil
	}
	return died
}

// WorkerStats fetches metric snapshots from every live worker.
func (c *Coordinator) WorkerStats(ctx context.Context) []wire.StatsResult {
	var out []wire.StatsResult
	resps, _ := c.scatter(ctx, c.allWorkers(), &wire.StatsQuery{})
	for _, resp := range resps {
		if sr, ok := resp.(*wire.StatsResult); ok {
			out = append(out, *sr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// StatsSnapshot mirrors the transport-layer RPC counters into the registry
// and returns a full snapshot — the single source for cluster stats and the
// /metrics exposition endpoint.
func (c *Coordinator) StatsSnapshot() metrics.RegistrySnapshot {
	mirrorRPCStats(c.reg, c.rpc.Stats())
	return c.reg.Snapshot()
}

// Ready reports whether the coordinator can usefully serve: at least one
// worker registered and a strict majority of registered workers alive. A nil
// return means ready; the error explains what is missing otherwise.
func (c *Coordinator) Ready() error {
	if c.ha != nil {
		c.ha.mu.Lock()
		standby := c.ha.standby
		expired := c.ha.lease.Expired(c.now())
		c.ha.mu.Unlock()
		if standby {
			// A standby is ready while its leader's lease is fresh: it is
			// replicating and can serve degraded reads. A lapsed lease means
			// a failover is in progress.
			if expired {
				return errors.New("standby: leader lease expired, failover in progress")
			}
			return nil
		}
	}
	all := c.membership.All()
	if len(all) == 0 {
		return errors.New("no workers registered")
	}
	alive := 0
	for _, m := range all {
		if m.Alive {
			alive++
		}
	}
	if alive*2 <= len(all) {
		return fmt.Errorf("quorum lost: %d/%d workers alive", alive, len(all))
	}
	return nil
}

// ClusterStats scrapes every live worker's metric snapshot (reusing the
// WorkerStats scatter) and merges it with the membership view and the
// coordinator's own registry into one per-worker result, one row per
// registered member — dead or unresponsive workers appear with
// Scraped=false so a dashboard shows the hole instead of silently
// dropping the row.
func (c *Coordinator) ClusterStats(ctx context.Context) *wire.ClusterStatsResult {
	snap := c.StatsSnapshot()
	role, leader, leaderAddr := c.Role()
	out := &wire.ClusterStatsResult{
		Epoch:      c.Epoch(),
		Role:       role,
		Leader:     leader,
		LeaderAddr: leaderAddr,
		Coordinator: wire.StatsResult{
			Node:       "coordinator",
			Counters:   snap.Counters,
			Gauges:     snap.Gauges,
			Histograms: histStatsOf(snap.Histograms),
		},
	}
	byNode := make(map[wire.NodeID]wire.StatsResult)
	for _, s := range c.WorkerStats(ctx) {
		byNode[s.Node] = s
	}
	members := c.membership.All()
	sort.Slice(members, func(i, j int) bool { return members[i].Node < members[j].Node })
	for _, m := range members {
		e := wire.WorkerStatsEntry{
			Node:    m.Node,
			Addr:    m.Addr,
			Alive:   m.Alive,
			Load:    m.Load,
			Stored:  m.Stored,
			Cameras: m.Cameras,
		}
		if s, ok := byNode[m.Node]; ok {
			e.Scraped = true
			e.Stats = s
		}
		out.Workers = append(out.Workers, e)
	}
	return out
}
