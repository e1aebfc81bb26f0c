package core

import (
	"context"
	"fmt"
	"maps"
	"sort"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// routeTable is one epoch of the camera partition: the registered cameras
// and, for each assigned one, the workers that receive its stream. A
// published table is never mutated. Writers (AddCameras, Reassign,
// applyRecord, becomeLeader) build a successor and publish it while holding
// c.mu, so a track commit that re-validates the epoch under c.mu excludes a
// concurrent publish. Readers load the current table once per operation,
// take no lock for it, and resolve addresses and liveness from membership at
// read time.
type routeTable struct {
	epoch uint64
	cams  map[uint32]wire.CameraInfo
	// nodes holds assigned cameras only: the owner first, then its replicas.
	nodes map[uint32][]wire.NodeID
}

// owner returns the worker owning a camera.
func (rt *routeTable) owner(cam uint32) (wire.NodeID, bool) {
	if ns := rt.nodes[cam]; len(ns) > 0 {
		return ns[0], true
	}
	return "", false
}

// withCameras returns a copy of rt, at the same epoch, with infos
// registered.
func (rt *routeTable) withCameras(infos []wire.CameraInfo) *routeTable {
	cams := make(map[uint32]wire.CameraInfo, len(rt.cams)+len(infos))
	maps.Copy(cams, rt.cams)
	for _, ci := range infos {
		cams[ci.ID] = ci
	}
	return &routeTable{epoch: rt.epoch, cams: cams, nodes: rt.nodes}
}

// sortedCams returns the registered cameras in ID order.
func (rt *routeTable) sortedCams() []wire.CameraInfo {
	cams := make([]wire.CameraInfo, 0, len(rt.cams))
	for _, ci := range rt.cams {
		cams = append(cams, ci)
	}
	sort.Slice(cams, func(i, j int) bool { return cams[i].ID < cams[j].ID })
	return cams
}

// liveAddr returns a worker's serve address, or false when the worker is
// unknown or dead.
func (c *Coordinator) liveAddr(node wire.NodeID) (string, bool) {
	m, ok := c.membership.Get(node)
	if !ok || !m.Alive {
		return "", false
	}
	return m.Addr, true
}

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() uint64 { return c.table.Load().epoch }

// Assignment returns a copy of the current camera→worker map.
func (c *Coordinator) Assignment() cluster.Assignment {
	rt := c.table.Load()
	out := make(cluster.Assignment, len(rt.nodes))
	for cam, ns := range rt.nodes {
		out[cam] = ns[0]
	}
	return out
}

// RoutesFor returns the serve addresses of every live worker that should
// receive a camera's stream: the primary first, then any replicas.
//
//lint:allow testonly pairs RouteFor in the public API for feeds that stream worker-direct with replicas; the Ingester reads the route table itself
func (c *Coordinator) RoutesFor(cam uint32) []string {
	var out []string
	for _, n := range c.table.Load().nodes[cam] {
		if addr, ok := c.liveAddr(n); ok {
			out = append(out, addr)
		}
	}
	return out
}

// RouteFor returns the serve address of the worker owning a camera.
func (c *Coordinator) RouteFor(cam uint32) (string, bool) {
	_, addr, ok := c.liveOwner(cam)
	return addr, ok
}

// liveOwner returns a camera's owner and the owner's serve address, or false
// when the camera is unassigned or its owner unknown or dead.
func (c *Coordinator) liveOwner(cam uint32) (wire.NodeID, string, bool) {
	node, ok := c.table.Load().owner(cam)
	if !ok {
		return "", "", false
	}
	addr, ok := c.liveAddr(node)
	return node, addr, ok
}

// AddCameras registers cameras, reseeds geometric vision-graph edges within
// maxGap, recomputes the partition over live workers, and pushes assignments.
func (c *Coordinator) AddCameras(ctx context.Context, infos []wire.CameraInfo, maxGap float64) error {
	for _, ci := range infos {
		c.network.Add(camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range))
	}
	c.network.SeedGeometricEdges(maxGap)
	c.network.BuildIndex(0)
	c.mu.Lock()
	c.table.Store(c.table.Load().withCameras(infos))
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
	aliveSet := make(map[wire.NodeID]bool, len(alive))
	for i, m := range alive {
		nodes[i] = m.Node
		addrByNode[m.Node] = m.Addr
		aliveSet[m.Node] = true
	}

	c.mu.Lock()
	prev := c.table.Load()
	cams := prev.sortedCams()
	proposed := c.partitioner.Partition(cams, nodes)
	// Stability-first assignment: a camera stays with its live owner (its
	// history lives there); a camera whose owner died is promoted to its
	// first live replica holder (standby history becomes authoritative);
	// only otherwise does the partitioner's fresh proposal apply.
	assignment := make(cluster.Assignment, len(cams))
	for _, ci := range cams {
		assignment[ci.ID] = proposed[ci.ID]
		for _, n := range prev.nodes[ci.ID] {
			if aliveSet[n] {
				assignment[ci.ID] = n
				break
			}
		}
	}
	replicas := replicaPlacement(cams, nodes, assignment, c.opts.Replicas)
	rt := &routeTable{epoch: prev.epoch + 1, cams: prev.cams, nodes: make(map[uint32][]wire.NodeID, len(cams))}
	camsByNode := make(map[wire.NodeID][]wire.CameraInfo)
	replicasByNode := make(map[wire.NodeID][]wire.CameraInfo)
	for _, ci := range cams {
		n := assignment[ci.ID]
		rt.nodes[ci.ID] = append([]wire.NodeID{n}, replicas[ci.ID]...)
		camsByNode[n] = append(camsByNode[n], ci)
		for _, rn := range replicas[ci.ID] {
			replicasByNode[rn] = append(replicasByNode[rn], ci)
		}
	}
	c.table.Store(rt)
	// Continuous queries to reinstall.
	conts := make([]*coordContinuous, 0, len(c.continuous))
	for _, cc := range c.continuous {
		conts = append(conts, cc)
	}
	c.mu.Unlock()
	// The new assignment must be majority-durable before any worker acts on
	// it: a minority-partitioned leader pushing an epoch a failover forgets
	// would leave workers fenced on an epoch no future leader knows.
	if !c.haAppendWait(rt.epoch, assignRecordOf(rt)) {
		return fmt.Errorf("core: reassign to epoch %d: %w", rt.epoch, ErrNotCommitted)
	}

	var firstErr error
	for _, n := range nodes {
		msg := &wire.AssignCameras{Epoch: rt.epoch, Cameras: camsByNode[n], Replicas: replicasByNode[n]}
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
