package core

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// cameraOf builds the in-memory camera from its wire registration.
func cameraOf(ci wire.CameraInfo) *camera.Camera {
	return camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range)
}

// This file is the coordinator's high-availability layer: a replicated
// control-plane state machine plus leader lease and deterministic failover.
//
// The leader journals every control-plane mutation — camera registry,
// assignment + epoch, worker membership, and track-registry transitions — as
// versioned wire.ControlRecords and streams them to its standby peers inside
// Replicate frames. Client-facing mutations (registration, camera adds,
// reassignment, track start/stop) are acknowledged only once the record is
// durable on a majority of the group: haAppendWait journals the record, kicks
// an immediate replication round, and blocks until the majority commit index
// reaches it (or times out, in which case the caller surfaces
// ErrNotCommitted instead of a false ack). Worker-push records (handoff
// ownership moves, sweep recoveries) are journaled asynchronously — the
// data-plane event they describe has already happened, so refusing the push
// could not undo it; a failover that loses one is healed by the next sweep.
//
// A Replicate doubles as the leader lease: an empty one is a pure renewal.
// Standbys apply the journal in index order, acknowledge how far they got
// (ReplicateAck carries gap-recovery via NeedFrom), answer leader-only
// traffic with CodeNotLeader redirects, and keep serving local reads so the
// query plane degrades instead of failing.
//
// The journal does not grow without bound: once it exceeds
// compactMinJournal records, the majority-durable prefix is folded away (the
// live control state already *is* that prefix applied), keeping a
// compactKeepTail tail for cheap catch-up. A peer that needs compacted
// history — a fresh standby, or one resyncing after a leader change — gets a
// full-state snapshot frame (Replicate.SnapIndex) instead of a replay from
// index 1. Standbys compact too, bounded by the leader's advertised majority
// commit index (Replicate.Commit).
//
// When a standby sees the lease lapse it polls its peers with LeaderQuery and
// runs the deterministic election: the lowest coordinator ID among the
// candidates with the maximum applied journal index wins, with no voting
// round — every reachable standby computes the same answer. A reachable peer
// claiming leadership stops the election only if its claim renews the lease
// at a current epoch; a deposed leader still claiming at a stale epoch is
// ranked as an ordinary candidate instead of deferring failover forever. The
// winner marks its replicated membership fresh, flips the role (serialized
// against any in-flight journal application via applyMu), bumps the
// assignment epoch through Reassign — which fences the deposed leader:
// workers reject older epochs — and starts leasing. A deposed leader that
// hears a higher-epoch Replicate — or a higher-epoch rejection to its own
// stream — steps down to standby and resynchronizes from the new leader.
//
// Track position updates are deliberately NOT journaled: they are the hot
// path, and the track registry is replicated on transitions only (start,
// ownership change, recovery, stop). Likewise worker-side (Source, Seq)
// ingest dedup state needs no replication — it lives on the workers and
// survives coordinator failover by construction.

// maxReplicateBatch bounds the journal records shipped per Replicate frame;
// a further-behind standby catches up over successive frames (replicateTo
// keeps streaming while the peer makes progress).
const maxReplicateBatch = 512

// Journal compaction bounds: past compactMinJournal resident records the
// majority-durable prefix is folded into the live state, always retaining
// compactKeepTail records so a slightly-behind peer catches up from the tail
// instead of taking a full snapshot.
const (
	compactMinJournal = 1024
	compactKeepTail   = 256
)

// haCommitWaitTTLs is the majority-commit wait budget in lease TTLs. It must
// cover at least one replication round trip; two TTLs also spans a transient
// peer hiccup plus the retried frame.
const haCommitWaitTTLs = 2

// ErrNotCommitted reports that a control-plane mutation was journaled on the
// leader but not acknowledged by a majority of the HA group in time. The
// mutation is not durable: a failover may lose it, so it must not be
// acknowledged to the client as applied.
var ErrNotCommitted = errors.New("core: control mutation not acknowledged by a majority of the HA group")

// errNoLiveWorkers marks a Reassign that returned before bumping the epoch.
var errNoLiveWorkers = errors.New("core: no live workers to assign cameras to")

// haState is the coordinator's HA bookkeeping. Lock discipline: ha.mu is
// independent of Coordinator.mu — neither is ever acquired while holding the
// other — and applyMu serializes whole Replicate applications (and leader
// promotion) above both.
type haState struct {
	id    wire.NodeID
	peers map[wire.NodeID]string // peer coordinator ID → serve address
	ttl   time.Duration          // lease lifetime; renewals at ttl/4

	applyMu sync.Mutex // serializes Replicate application and promotion

	mu           sync.Mutex
	standby      bool
	lease        *cluster.Lease
	journal      []wire.ControlRecord   // records (base+1 .. base+len]
	base         uint64                 // indices <= base are compacted into live state
	applied      uint64                 // journal prefix applied locally (absolute index)
	acks         map[wire.NodeID]uint64 // leader: highest index each peer acked
	inFlight     map[wire.NodeID]bool   // leader: replication RPC outstanding
	commitCh     chan struct{}          // closed+replaced when acks or role change (broadcast)
	streamLeader wire.NodeID            // standby: whose journal we follow
	needReset    bool                   // standby: must resync from scratch
	leaderlessAt time.Time              // standby: when the lease first lapsed
}

// lastIndexLocked is the highest journaled index. Caller holds ha.mu.
func (h *haState) lastIndexLocked() uint64 { return h.base + uint64(len(h.journal)) }

// notifyLocked wakes every majority-commit waiter. Caller holds ha.mu.
func (h *haState) notifyLocked() {
	close(h.commitCh)
	h.commitCh = make(chan struct{})
}

// compactLocked folds the journal prefix up to durable (never closer than
// compactKeepTail to the tail) into the base offset — the live control state
// already equals that prefix applied. Returns the records dropped. Caller
// holds ha.mu.
func (h *haState) compactLocked(durable uint64) uint64 {
	if len(h.journal) <= compactMinJournal {
		return 0
	}
	cut := durable
	if max := h.lastIndexLocked() - compactKeepTail; cut > max {
		cut = max
	}
	if cut <= h.base {
		return 0
	}
	n := cut - h.base
	h.journal = append([]wire.ControlRecord(nil), h.journal[n:]...)
	h.base = cut
	return n
}

// IsStandby reports whether this coordinator currently follows a leader.
func (c *Coordinator) IsStandby() bool {
	if c.ha == nil {
		return false
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	return c.ha.standby
}

// Role describes this coordinator's control-plane role: "single" outside an
// HA group, else "leader" or "standby" plus the current leader's identity.
func (c *Coordinator) Role() (role string, leader wire.NodeID, leaderAddr string) {
	if c.ha == nil {
		return "single", "", ""
	}
	c.ha.mu.Lock()
	defer c.ha.mu.Unlock()
	if !c.ha.standby {
		return "leader", c.ha.id, c.Addr()
	}
	l, addr, _ := c.ha.lease.Holder()
	return "standby", l, addr
}

// haAppend journals one control-plane mutation on the leader and kicks an
// immediate replication round, returning the assigned index (0 when not HA
// or not leading). Callers must not hold c.mu (ha.mu and c.mu never nest).
// Standbys never append here — their journal grows only by applying the
// leader's stream. Use haAppendWait for client-acknowledged mutations;
// plain haAppend is for records describing data-plane events that already
// happened (handoff moves, sweep recoveries), where refusing the append
// could not undo anything and a lost record is healed by the next sweep.
func (c *Coordinator) haAppend(epoch uint64, rec wire.ControlRecord) uint64 {
	if c.ha == nil {
		return 0
	}
	h := c.ha
	h.mu.Lock()
	if h.standby {
		h.mu.Unlock()
		return 0
	}
	rec.Index = h.lastIndexLocked() + 1
	rec.Epoch = epoch
	h.journal = append(h.journal, rec)
	h.applied = rec.Index
	h.mu.Unlock()
	c.replicateAll() // ship it now; the lease tick alone would add ttl/4 latency
	return rec.Index
}

// haAppendWait journals one mutation and blocks until a majority of the HA
// group (self included) has applied it. Reports false — and the caller must
// not ack the client — when the group majority is unreachable within the
// wait budget, or when this node stopped leading. Always true outside HA.
func (c *Coordinator) haAppendWait(epoch uint64, rec wire.ControlRecord) bool {
	if c.ha == nil {
		return true
	}
	idx := c.haAppend(epoch, rec)
	if idx == 0 {
		return false
	}
	return c.haWaitCommitted(idx)
}

// haWaitCommitted blocks until the given journal index is durable on a
// majority of the group, this node loses leadership, the coordinator stops,
// or the wait budget (haCommitWaitTTLs lease TTLs) runs out.
func (c *Coordinator) haWaitCommitted(idx uint64) bool {
	h := c.ha
	timer := time.NewTimer(haCommitWaitTTLs * h.ttl)
	defer timer.Stop()
	for {
		h.mu.Lock()
		if h.standby {
			h.mu.Unlock()
			return false
		}
		if h.commitIndexLocked() >= idx {
			h.mu.Unlock()
			return true
		}
		ch := h.commitCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			c.reg.Counter("ha.commit_timeouts").Inc()
			return false
		case <-c.stopCh:
			return false
		}
	}
}

// assignRecordOf snapshots a route table's camera→worker assignment (plus
// replicas) as one OpAssign record. The record shares the table's slices,
// which are never mutated.
func assignRecordOf(rt *routeTable) wire.ControlRecord {
	rec := wire.ControlRecord{Op: wire.OpAssign, Epoch: rt.epoch}
	rec.Assign = make([]wire.AssignEntry, 0, len(rt.nodes))
	for cam, ns := range rt.nodes {
		e := wire.AssignEntry{Camera: cam, Node: ns[0]}
		if len(ns) > 1 {
			e.Replicas = ns[1:]
		}
		rec.Assign = append(rec.Assign, e)
	}
	return rec
}

func trackRecordOf(tr *coordTrack) wire.ControlRecord {
	return wire.ControlRecord{Op: wire.OpTrack, Track: wire.TrackRecord{
		TrackID:    tr.trackID,
		Owner:      tr.owner,
		LastCamera: tr.lastCamera,
		Feature:    tr.feature,
		LastSeen:   tr.lastSeen,
		Handoffs:   tr.handoffs,
	}}
}

// snapshotRecords flattens the live control-plane state — cameras,
// membership, assignment, tracks — into the record sequence a snapshot frame
// carries. Application order matters only in that cameras precede the
// assignment, mirroring the normal journal flow. Callers must not hold ha.mu
// or c.mu.
func (c *Coordinator) snapshotRecords() []wire.ControlRecord {
	members := c.membership.All()
	rt := c.table.Load()
	epoch := rt.epoch
	var recs []wire.ControlRecord
	if len(rt.cams) > 0 {
		recs = append(recs, wire.ControlRecord{Epoch: epoch, Op: wire.OpCameras, Cameras: rt.sortedCams()})
	}
	for _, m := range members {
		recs = append(recs, wire.ControlRecord{Epoch: epoch, Op: wire.OpMember, Member: wire.MemberRecord{
			Node: m.Node, Addr: m.Addr, Capacity: m.Capacity,
		}})
	}
	recs = append(recs, assignRecordOf(rt))
	c.mu.Lock()
	for _, tr := range c.tracks {
		tr := trackRecordOf(tr)
		tr.Epoch = epoch
		recs = append(recs, tr)
	}
	c.mu.Unlock()
	return recs
}

// --- HA loop -----------------------------------------------------------------

// haLoop drives the role-dependent periodic work: a leader renews its lease
// by replicating to every peer; a standby watches for lease expiry and runs
// the election. One loop serves both roles so step-down and promotion are
// just state flips, with no goroutine handover.
func (c *Coordinator) haLoop() {
	defer c.lifecycle.Done()
	tick := c.ha.ttl / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			if c.IsStandby() {
				c.maybeElect()
			} else {
				c.replicateAll()
			}
		}
	}
}

// replicateAll ships journal tails (or pure lease renewals) to every peer.
// Each peer gets at most one outstanding RPC, so a partitioned peer cannot
// stall the lease cadence toward the healthy ones.
func (c *Coordinator) replicateAll() {
	h := c.ha
	h.mu.Lock()
	if h.standby {
		h.mu.Unlock()
		return
	}
	var targets []wire.NodeID
	for id := range h.peers {
		if !h.inFlight[id] {
			h.inFlight[id] = true
			targets = append(targets, id)
		}
	}
	h.mu.Unlock()
	for _, id := range targets {
		go c.replicateTo(id)
	}
}

// replicateTo streams to one peer until it is caught up (or stops making
// progress): each round ships one frame and folds the answer, and the loop
// immediately ships the next while the peer is behind — this is what makes
// the majority-commit wait a round trip instead of a lease tick.
func (c *Coordinator) replicateTo(peer wire.NodeID) {
	h := c.ha
	defer func() {
		h.mu.Lock()
		delete(h.inFlight, peer)
		h.mu.Unlock()
	}()
	for c.replicateOnce(peer) {
		select {
		case <-c.stopCh:
			return
		default:
		}
	}
}

// replicateOnce sends one Replicate frame — a journal tail, or a full-state
// snapshot when the peer needs compacted history — and folds its answer into
// the ack state. A higher-epoch rejection means a new leader exists: step
// down and let its stream resynchronize us. Reports whether the peer is
// still behind and advancing, so replicateTo keeps streaming.
func (c *Coordinator) replicateOnce(peer wire.NodeID) bool {
	h := c.ha
	epoch := c.Epoch()
	h.mu.Lock()
	if h.standby {
		h.mu.Unlock()
		return false
	}
	addr := h.peers[peer]
	from := h.acks[peer] + 1
	snapshot := from <= h.base // the records it needs are compacted away
	msg := &wire.Replicate{
		Leader:     h.id,
		LeaderAddr: c.Addr(),
		Epoch:      epoch,
		Commit:     h.commitIndexLocked(),
		FromIndex:  from,
	}
	if snapshot {
		msg.SnapIndex = h.lastIndexLocked()
		h.mu.Unlock()
		// Built outside ha.mu (takes c.mu; the two never nest). The state may
		// include appends that raced past SnapIndex; the tail then replays
		// them onto the standby, which is harmless — application is
		// idempotent upserts.
		msg.Records = c.snapshotRecords()
	} else {
		if from <= h.lastIndexLocked() {
			lo := from - h.base - 1
			hi := uint64(len(h.journal))
			if hi > lo+maxReplicateBatch {
				hi = lo + maxReplicateBatch
			}
			// Slice the journal directly instead of copying the batch: journal
			// entries are append-only (concurrent appends land past hi, and
			// compaction swaps in a fresh backing array rather than mutating
			// this one), so the view stays stable while the frame is encoded.
			msg.Records = h.journal[lo:hi]
		}
		h.mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), h.ttl/2)
	defer cancel()
	resp, err := c.rpc.Call(ctx, addr, msg)
	if err != nil {
		var re *cluster.RemoteError
		if errors.As(err, &re) && (re.Code == wire.CodeWrongEpoch || re.Code == wire.CodeNotLeader) {
			// The peer follows (or is) a newer leader. Yield.
			c.stepDown("", re.Message)
		} else {
			c.reg.Counter("ha.replicate_errors").Inc()
		}
		return false
	}
	ack, ok := resp.(*wire.ReplicateAck)
	if !ok {
		return false
	}
	h.mu.Lock()
	prev := h.acks[peer]
	if ack.NeedFrom > 0 {
		// Gap: rewind so the next frame restarts from what the peer needs.
		if ack.NeedFrom-1 < h.acks[peer] || h.acks[peer] == 0 {
			h.acks[peer] = ack.NeedFrom - 1
		}
	} else if ack.Applied > h.acks[peer] {
		h.acks[peer] = ack.Applied
	}
	moved := h.acks[peer] != prev
	if moved {
		h.notifyLocked()
	}
	if n := h.compactLocked(h.commitIndexLocked()); n > 0 {
		c.reg.Counter("ha.compacted").Add(int64(n))
	}
	pending := !h.standby && h.acks[peer] < h.lastIndexLocked()
	h.mu.Unlock()
	if snapshot {
		c.reg.Counter("ha.snapshots_sent").Inc()
	} else {
		c.reg.Counter("ha.replicated").Add(int64(len(msg.Records)))
	}
	// Keep streaming only while the ack state is advancing (a rewind counts:
	// the next frame serves the requested gap); a stuck peer waits for the
	// next lease tick instead of hot-looping.
	return pending && moved
}

// commitIndexLocked is the highest journal index durable on a majority of
// the HA group (self included). Caller holds ha.mu.
func (h *haState) commitIndexLocked() uint64 {
	idxs := []uint64{h.lastIndexLocked()}
	for id := range h.peers {
		idxs = append(idxs, h.acks[id])
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	// Majority = (n/2)+1 of the group; the commit index is what the
	// (majority)th-best member holds.
	return idxs[len(idxs)/2]
}

// --- standby side ------------------------------------------------------------

// onReplicate handles the leader's journal stream and lease renewal on a
// standby — and, on a node that still believes it leads, doubles as the
// step-down trigger when the frame proves a newer leader exists.
func (c *Coordinator) onReplicate(m *wire.Replicate) (any, error) {
	h := c.ha
	if h == nil {
		return &wire.Error{Code: wire.CodeBadRequest, Message: "coordinator is not HA-enabled"}, nil
	}
	h.applyMu.Lock()
	defer h.applyMu.Unlock()

	epoch := c.Epoch()
	h.mu.Lock()
	if !h.standby {
		// Two leaders met. The newer epoch wins; equal epochs break toward
		// the lower ID, so exactly one of the pair yields.
		if m.Epoch > epoch || (m.Epoch == epoch && m.Leader < h.id) {
			h.stepDownLocked()
			c.reg.Counter("ha.stepdowns").Inc()
		} else {
			h.mu.Unlock()
			return &wire.Error{Code: wire.CodeWrongEpoch, Message: c.Addr()}, nil
		}
	}
	if !h.lease.Renew(m.Leader, m.LeaderAddr, m.Epoch, c.now()) {
		_, laddr, _ := h.lease.Holder()
		h.mu.Unlock()
		return &wire.Error{Code: wire.CodeNotLeader, Message: laddr}, nil
	}
	h.leaderlessAt = time.Time{}
	if m.Leader != h.streamLeader {
		// New journal source: its indices are not comparable to what we
		// applied before, so resynchronize from the beginning.
		h.streamLeader = m.Leader
		h.needReset = true
	}
	if m.SnapIndex > 0 {
		// Full-state snapshot: the leader compacted away the history we
		// need. Apply it and restart the journal at SnapIndex.
		if !h.needReset && m.SnapIndex <= h.applied {
			ack := &wire.ReplicateAck{Applied: h.applied}
			h.mu.Unlock()
			return ack, nil // stale snapshot; the tail already covers it
		}
		h.mu.Unlock()
		for i := range m.Records {
			c.applyRecord(&m.Records[i])
		}
		h.mu.Lock()
		if h.standby && h.streamLeader == m.Leader {
			h.journal = nil
			h.base = m.SnapIndex
			h.applied = m.SnapIndex
			h.needReset = false
		}
		ack := &wire.ReplicateAck{Applied: h.applied}
		h.mu.Unlock()
		c.reg.Counter("ha.snapshots_applied").Inc()
		return ack, nil
	}
	if h.needReset {
		if m.FromIndex != 1 {
			ack := &wire.ReplicateAck{Applied: 0, NeedFrom: 1}
			h.mu.Unlock()
			return ack, nil
		}
		h.journal = nil
		h.base = 0
		h.applied = 0
		h.needReset = false
	}
	if m.FromIndex > h.applied+1 {
		ack := &wire.ReplicateAck{Applied: h.applied, NeedFrom: h.applied + 1}
		h.mu.Unlock()
		return ack, nil
	}
	// Contiguous tail beyond what we have applied.
	var toApply []wire.ControlRecord
	next := h.applied + 1
	for i := range m.Records {
		idx := m.FromIndex + uint64(i)
		if idx < next {
			continue // already applied (duplicate frame)
		}
		if idx != next {
			break // hole mid-frame; stop at it
		}
		toApply = append(toApply, m.Records[i])
		next++
	}
	h.mu.Unlock()

	for i := range toApply {
		c.applyRecord(&toApply[i])
	}

	h.mu.Lock()
	if h.standby && h.streamLeader == m.Leader && !h.needReset {
		h.journal = append(h.journal, toApply...)
		h.applied += uint64(len(toApply))
		// The leader's majority commit index bounds how much history any
		// future leader could still need record-by-record; fold the rest.
		if n := h.compactLocked(m.Commit); n > 0 {
			c.reg.Counter("ha.compacted").Add(int64(n))
		}
	} else {
		// The role or stream flipped while the batch applied (promotion is
		// serialized on applyMu, so this is a defensive fence): discard the
		// batch instead of splicing stale indices into a leader's journal.
		toApply = nil
	}
	ack := &wire.ReplicateAck{Applied: h.applied}
	h.mu.Unlock()
	if len(toApply) > 0 {
		c.reg.Counter("ha.applied").Add(int64(len(toApply)))
	}
	return ack, nil
}

// applyRecord folds one journal record into the standby's control-plane
// state. Application is idempotent: every op is an upsert or a whole-state
// replacement, so duplicate frames are harmless.
func (c *Coordinator) applyRecord(rec *wire.ControlRecord) {
	switch rec.Op {
	case wire.OpCameras:
		for _, ci := range rec.Cameras {
			c.network.Add(cameraOf(ci))
		}
		c.network.SeedGeometricEdges(routeSlack)
		c.network.BuildIndex(0)
		c.mu.Lock()
		c.table.Store(c.table.Load().withCameras(rec.Cameras))
		c.mu.Unlock()
	case wire.OpAssign:
		nodes := make(map[uint32][]wire.NodeID, len(rec.Assign))
		for _, e := range rec.Assign {
			nodes[e.Camera] = append([]wire.NodeID{e.Node}, e.Replicas...)
		}
		c.mu.Lock()
		prev := c.table.Load()
		c.table.Store(&routeTable{epoch: max(prev.epoch, rec.Epoch), cams: prev.cams, nodes: nodes})
		c.mu.Unlock()
	case wire.OpMember:
		c.membership.Register(&wire.Register{
			Node:     rec.Member.Node,
			Addr:     rec.Member.Addr,
			Capacity: rec.Member.Capacity,
		}, c.now())
	case wire.OpTrack:
		t := rec.Track
		c.mu.Lock()
		tr, ok := c.tracks[t.TrackID]
		if !ok {
			tr = &coordTrack{trackID: t.TrackID, ch: make(chan wire.TrackUpdate, 1024)}
			c.tracks[t.TrackID] = tr
		}
		tr.owner = t.Owner
		tr.lastCamera = t.LastCamera
		tr.feature = t.Feature
		tr.lastSeen = t.LastSeen
		tr.handoffs = t.Handoffs
		c.mu.Unlock()
	case wire.OpTrackRemove:
		c.mu.Lock()
		tr, ok := c.tracks[rec.Track.TrackID]
		if ok {
			delete(c.tracks, rec.Track.TrackID)
		}
		c.mu.Unlock()
		if ok {
			close(tr.ch)
		}
	}
}

// onLeaderQuery answers who this node thinks leads, and how far its journal
// has applied — the election poll.
func (c *Coordinator) onLeaderQuery() (any, error) {
	h := c.ha
	if h == nil {
		return &wire.LeaderInfo{Node: "", Addr: c.Addr(), IsLeader: true, Epoch: c.Epoch()}, nil
	}
	role, leader, laddr := c.Role()
	h.mu.Lock()
	applied := h.applied
	h.mu.Unlock()
	return &wire.LeaderInfo{
		Node:       h.id,
		Addr:       c.Addr(),
		IsLeader:   role == "leader",
		Leader:     leader,
		LeaderAddr: laddr,
		Epoch:      c.Epoch(),
		Applied:    applied,
	}, nil
}

// maybeElect runs on each standby tick: if the lease lapsed, poll the peers
// and promote when the deterministic election picks this node. A reachable
// peer whose leadership claim renews the lease at a current epoch re-arms the
// timer instead — only Replicate frames were lost, not the leader. A claim
// the lease rejects (stale epoch: a deposed leader that never observed its
// own deposition) must not defer failover, so the claimant is ranked as an
// ordinary candidate.
func (c *Coordinator) maybeElect() {
	h := c.ha
	now := c.now()
	h.mu.Lock()
	if !h.standby || !h.lease.Expired(now) {
		h.mu.Unlock()
		return
	}
	if h.leaderlessAt.IsZero() {
		h.leaderlessAt = now
	}
	applied := h.applied
	h.mu.Unlock()

	cands := map[wire.NodeID]uint64{h.id: applied}
	ctx, cancel := context.WithTimeout(context.Background(), h.ttl/2)
	defer cancel()
	for id, addr := range h.peers {
		resp, err := c.rpc.Call(ctx, addr, &wire.LeaderQuery{})
		if err != nil {
			continue
		}
		li, ok := resp.(*wire.LeaderInfo)
		if !ok {
			continue
		}
		if li.IsLeader {
			h.mu.Lock()
			renewed := h.lease.Renew(li.Node, li.Addr, li.Epoch, c.now())
			if renewed {
				h.leaderlessAt = time.Time{}
			}
			h.mu.Unlock()
			if renewed {
				// The leader is alive and current; stand down from the
				// election.
				return
			}
			// Stale claimant — fall through and rank it like any candidate.
		}
		cands[id] = li.Applied
	}
	if winner, ok := cluster.ElectLeader(cands); ok && winner == h.id {
		c.becomeLeader()
	}
	// Otherwise a better-placed standby won the same computation; its first
	// Replicate will renew our lease.
}

// becomeLeader promotes this standby: adopt the replicated membership as
// freshly seen, flip the role, bump the assignment epoch through Reassign —
// which both redirects the data plane and fences any deposed leader — and
// start leasing on the next tick. Promotion is serialized against in-flight
// journal application (applyMu): a long Replicate batch can outlive the
// lease TTL, and flipping the role mid-apply would let the batch tail race
// haAppend on the new leader's journal.
func (c *Coordinator) becomeLeader() {
	h := c.ha
	h.applyMu.Lock()
	defer h.applyMu.Unlock()
	now := c.now()
	h.mu.Lock()
	if !h.standby || !h.lease.Expired(now) {
		// The role flipped, or a Replicate frame landed while we waited for
		// the apply lock — the group has a live leader after all.
		h.mu.Unlock()
		return
	}
	h.standby = false
	h.acks = make(map[wire.NodeID]uint64)
	h.streamLeader = ""
	var down time.Duration
	if !h.leaderlessAt.IsZero() {
		down = now.Sub(h.leaderlessAt)
		h.leaderlessAt = time.Time{}
	}
	h.mu.Unlock()

	c.reg.Counter("failover.total").Inc()
	// Coarse by design: sub-second outages still register one second, so
	// the counter is a lower-bound outage clock that never reads zero
	// after a real failover.
	c.reg.Counter("leaderless.seconds").Add(int64(down/time.Second) + 1)
	c.membership.Refresh(now)
	// Two attempts' worth of time for the assignment pushes, or no deadline
	// when the policy leaves attempts unbounded.
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if d := c.rpc.Policy().PerAttemptTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, 2*d)
	}
	defer cancel()
	if err := c.Reassign(ctx); err != nil {
		if errors.Is(err, errNoLiveWorkers) {
			// Reassign returned before bumping the epoch: claim it here so
			// the fence holds; workers adopt it as they re-register. Every
			// other failure mode (push errors, majority unreachable) has
			// already bumped and journaled the epoch — bumping again would
			// desynchronize the in-memory epoch from the journaled one.
			c.mu.Lock()
			next := *c.table.Load()
			next.epoch++
			c.table.Store(&next)
			c.mu.Unlock()
		}
		c.reg.Counter("ha.promote_reassign_errors").Inc()
	}
	c.reg.Counter("ha.promotions").Inc()
}

// stepDown demotes a (deposed) leader to standby. The lease it left behind
// is stale, so the next standby tick polls the peers, finds the live leader,
// and re-arms from its answer; the new leader's stream then resynchronizes
// the journal from scratch.
func (c *Coordinator) stepDown(leader wire.NodeID, leaderAddr string) {
	_, _ = leader, leaderAddr // learned properly from the new leader's stream
	h := c.ha
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.standby {
		return
	}
	h.stepDownLocked()
	c.reg.Counter("ha.stepdowns").Inc()
}

func (h *haState) stepDownLocked() {
	h.standby = true
	h.streamLeader = ""
	h.needReset = true
	h.leaderlessAt = time.Time{}
	h.notifyLocked() // majority-commit waiters must abort: we no longer lead
}

// standbyReject answers leader-only traffic on a standby with a redirect.
func (c *Coordinator) standbyReject() (any, error) {
	_, _, laddr := c.Role()
	return &wire.Error{Code: wire.CodeNotLeader, Message: laddr}, nil
}
