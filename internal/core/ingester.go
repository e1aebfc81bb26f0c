package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// IngesterOptions tunes an ingest pipeline.
type IngesterOptions struct {
	// PipelineDepth is the length of each worker lane's queue: the batches
	// that may wait behind the one Call the lane's sender keeps in flight.
	// Producers block once it is full (backpressure); depth does not add
	// concurrent Calls to a worker. Defaults to defaultPipelineDepth.
	PipelineDepth int
	// Source identifies this ingester for idempotent sequenced delivery;
	// it scopes the per-worker sequence numbers stamped on every batch.
	// Defaults to a name unique to this ingester and process incarnation.
	// Two ingesters must never share a Source: a worker keeps one delivery
	// cursor per Source.
	Source string
}

// defaultPipelineDepth is the lane queue length when PipelineDepth is unset.
const defaultPipelineDepth = 4

// maxSpareGroups bounds the Ingester's spare coalesce groups: enough for
// every group in flight on a dozen lanes at the default depth (PipelineDepth
// queued plus one in Call, per lane). A group acknowledged while the list is
// full is left to the collector.
const maxSpareGroups = 64

var (
	// ingesterIDs makes default Source names unique within a process.
	ingesterIDs atomic.Uint64
	// incarnation makes them unique across processes, restarts included: a
	// restarted process (say, PID 1 in a container) must not resume at Seq 1
	// under a Source whose cursor the workers kept, or every batch would be
	// acknowledged as a replay and dropped.
	incarnation = func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("core: ingest source nonce: %v", err))
		}
		return hex.EncodeToString(b[:])
	}()
)

// Ingester routes observations to the workers owning their cameras, by the
// coordinator's current route table; it keeps no routing state of its own.
// It stands in for the per-camera feed processes of a real deployment, and
// the coordinator's ingest proxy delivers through one.
//
// Each frame's observations are coalesced into one multi-camera batch per
// destination worker, and a persistent sender lane per worker delivers
// batches from a bounded queue (PipelineDepth), stamping each with a
// (Source, Seq) pair so at-least-once retries and transport duplicates are
// applied at most once, in order. Safe for concurrent use, Close included.
type Ingester struct {
	coord     *Coordinator
	transport cluster.Transport
	opts      IngesterOptions

	mu      sync.Mutex
	senders map[laneKey]*ingestSender

	// lanes is the number of sequenced lanes kept per worker, each with its
	// own Source; deliver spreads frames over them round-robin (nextLane).
	// One lane, the default, keeps each worker's stream in frame order. The
	// coordinator's proxy keeps proxyLanes, so frames from concurrent
	// clients reach a worker concurrently and are each still applied once.
	lanes    int
	nextLane atomic.Uint64

	// laneMu is held shared across every lane send and exclusively while
	// Close closes the lanes, so a producer racing Close either gets its
	// batch into a lane that the sender then drains or sees closed.
	laneMu sync.RWMutex
	closed bool

	lifecycle sync.WaitGroup

	// spares holds coalesce groups whose batches were acknowledged, cleared
	// and emptied, at most maxSpareGroups of them; coalesce takes one for
	// each new address group, so steady-state ingest reuses the grown
	// arrays instead of doubling fresh ones every frame.
	spareMu sync.Mutex
	spares  [][]wire.Observation

	// Async-path accounting: Flush waits for inflight to drain and collects
	// the accumulated acceptance count and first error.
	statMu   sync.Mutex
	statCond *sync.Cond
	inflight int
	accepted int
	firstErr error
}

// laneKey names one delivery lane: a worker address and a lane index.
type laneKey struct {
	addr string
	lane int
}

// ingestSender is one delivery lane: a bounded channel (the pipeline
// window) drained by a single goroutine that owns the lane's sequence
// counter, so the lane's deliveries are ordered even with concurrent
// producers.
type ingestSender struct {
	ch     chan ingestJob
	source string
}

type ingestJob struct {
	ctx   context.Context
	batch *wire.IngestBatch
	done  func(*wire.IngestAck, error)
}

// NewIngester returns an ingest router bound to a coordinator, with the
// default pipeline depth.
func NewIngester(coord *Coordinator, transport cluster.Transport) *Ingester {
	return NewIngesterWith(coord, transport, IngesterOptions{})
}

// NewIngesterWith is NewIngester with explicit pipeline options.
func NewIngesterWith(coord *Coordinator, transport cluster.Transport, o IngesterOptions) *Ingester {
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = defaultPipelineDepth
	}
	if o.Source == "" {
		o.Source = fmt.Sprintf("ingest-%s-%d", incarnation, ingesterIDs.Add(1))
	}
	ing := &Ingester{
		coord:     coord,
		transport: transport,
		opts:      o,
		senders:   make(map[laneKey]*ingestSender),
		lanes:     1,
	}
	ing.statCond = sync.NewCond(&ing.statMu)
	return ing
}

// coalesce converts items to observations and groups them per destination
// address (live primaries and replicas alike), each group sorted by (camera,
// observation ID) so per-worker identity association is deterministic
// regardless of input order. It also returns how many observations had no
// live owner. The whole frame routes by one route table, and each distinct
// node's address and liveness are read from membership once.
func coalesce[T any](ing *Ingester, items []T, toObs func(T) wire.Observation) (map[string][]wire.Observation, int) {
	rt := ing.coord.table.Load()
	addrOf := make(map[wire.NodeID]string, 8) // "" for a dead or unknown node
	byAddr := make(map[string][]wire.Observation)
	unrouted := 0
	for _, item := range items {
		obs := toObs(item)
		routed := false
		for _, n := range rt.nodes[obs.Camera] {
			addr, ok := addrOf[n]
			if !ok {
				addr, _ = ing.coord.liveAddr(n)
				addrOf[n] = addr
			}
			if addr == "" {
				continue
			}
			routed = true
			group, ok := byAddr[addr]
			if !ok {
				group = ing.spareGroup()
			}
			byAddr[addr] = append(group, obs)
		}
		if !routed {
			unrouted++
		}
	}
	for _, group := range byAddr {
		sortObservations(group)
	}
	return byAddr, unrouted
}

// observationOf converts a detection to its wire observation.
func observationOf(d vision.Detection) wire.Observation {
	return wire.Observation{
		ObsID:   d.ObsID,
		Camera:  uint32(d.Camera),
		Time:    d.Time,
		Pos:     d.Pos,
		Feature: d.Feature,
		TrueID:  d.TrueID,
	}
}

// spareGroup returns an empty recycled coalesce group, or nil when none is
// spare.
func (ing *Ingester) spareGroup() []wire.Observation {
	ing.spareMu.Lock()
	defer ing.spareMu.Unlock()
	n := len(ing.spares)
	if n == 0 {
		return nil
	}
	group := ing.spares[n-1]
	ing.spares[n-1] = nil
	ing.spares = ing.spares[:n-1]
	return group
}

// recycleGroup returns an acknowledged batch's observations to the spares.
// Clearing them drops the references they hold (feature vectors) before
// the array waits for reuse.
func (ing *Ingester) recycleGroup(group []wire.Observation) {
	if cap(group) == 0 {
		return
	}
	clear(group)
	ing.spareMu.Lock()
	defer ing.spareMu.Unlock()
	if len(ing.spares) < maxSpareGroups {
		ing.spares = append(ing.spares, group[:0])
	}
}

func sortObservations(obs []wire.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Camera != obs[j].Camera {
			return obs[i].Camera < obs[j].Camera
		}
		return obs[i].ObsID < obs[j].ObsID
	})
}

// enqueue hands a batch to one of addr's sender lanes, starting the lane on
// first use. Blocks while the lane's queue is full (backpressure).
func (ing *Ingester) enqueue(ctx context.Context, key laneKey, batch *wire.IngestBatch, done func(*wire.IngestAck, error)) {
	ing.laneMu.RLock()
	defer ing.laneMu.RUnlock()
	if ing.closed {
		done(nil, fmt.Errorf("core: ingester closed"))
		return
	}
	ing.mu.Lock()
	s, ok := ing.senders[key]
	if !ok {
		s = &ingestSender{ch: make(chan ingestJob, ing.opts.PipelineDepth), source: ing.opts.Source}
		if key.lane > 0 {
			s.source = fmt.Sprintf("%s.%d", ing.opts.Source, key.lane)
		}
		ing.senders[key] = s
		ing.lifecycle.Add(1)
		go ing.runSender(key.addr, s)
	}
	ing.mu.Unlock()
	s.ch <- ingestJob{ctx: ctx, batch: batch, done: done} //lint:allow rpcunderlock shared laneMu keeps Close from closing the lane mid-send; the sender that drains it never takes laneMu
}

// runSender drains one worker's lane. The sender owns the lane's sequence
// counter: stamping happens here, after any producer interleaving, so the
// sequence a worker sees is exactly its arrival order.
//
// Once the ack is in, the batch's Observations go back to the spares for a
// later frame's coalesce. That is sound because nothing holds the group past
// Call: no Transport keeps req once Call returns (TCP encodes the frame
// before it waits, InProc runs the handler on this goroutine, Faulty sends
// its duplicates synchronously), and no Handler keeps req or a slice of it
// — the worker finishes stage 2 before onIngest returns and tracking copies
// fields by value. What a worker does keep, a claimed track's template, is
// the detection's feature array, which the group only points at; clearing
// the group drops that pointer, not the array.
func (ing *Ingester) runSender(addr string, s *ingestSender) {
	defer ing.lifecycle.Done()
	var seq uint64
	for job := range s.ch {
		seq++
		job.batch.Source = s.source
		job.batch.Seq = seq
		resp, err := ing.transport.Call(job.ctx, addr, job.batch)
		var ack *wire.IngestAck
		if err == nil {
			ack, _ = resp.(*wire.IngestAck)
		}
		// Spare before done, so a frame whose acks are all in has given
		// back every group it took.
		ing.recycleGroup(job.batch.Observations)
		job.done(ack, err)
	}
}

// Tick sends an empty clock frame to every live owner and replica the route
// table names, advancing their observation time so track-loss detection and
// continuous-answer expiry run even on workers whose cameras saw nothing
// this frame. Real deployments get this for free from per-camera frame
// cadence. Tick returns once every worker acknowledged (or failed) the
// frame.
func (ing *Ingester) Tick(ctx context.Context, now time.Time) {
	nodes := make(map[wire.NodeID]bool)
	for _, ns := range ing.coord.table.Load().nodes {
		for _, n := range ns {
			nodes[n] = true
		}
	}
	frames := make(map[string][]wire.Observation, len(nodes))
	for n := range nodes {
		if addr, ok := ing.coord.liveAddr(n); ok {
			frames[addr] = nil
		}
	}
	ing.deliver(ctx, frames, now) //nolint:errcheck // clock ticks are best-effort
}

// IngestDetections delivers one frame's detections to the owning workers and
// waits for every acknowledgment, returning the number of observations
// accepted by primary owners. The frame becomes one coalesced multi-camera
// batch per destination worker, delivered concurrently through the
// workers' lanes.
func (ing *Ingester) IngestDetections(ctx context.Context, dets []vision.Detection) (int, error) {
	byAddr, _ := coalesce(ing, dets, observationOf)
	ack, err := ing.deliver(ctx, byAddr, time.Time{})
	return ack.Accepted, err
}

// deliver enqueues one batch per address, all on the same lane index, and
// waits for every acknowledgment, returning their sum and the first delivery
// error.
func (ing *Ingester) deliver(ctx context.Context, byAddr map[string][]wire.Observation, frameTime time.Time) (wire.IngestAck, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		sum      wire.IngestAck
		firstErr error
	)
	lane := 0
	if ing.lanes > 1 {
		lane = int(ing.nextLane.Add(1) % uint64(ing.lanes))
	}
	for addr, obs := range byAddr {
		wg.Add(1)
		batch := &wire.IngestBatch{FrameTime: frameTime, Observations: obs}
		ing.enqueue(ctx, laneKey{addr, lane}, batch, func(ack *wire.IngestAck, err error) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if ack != nil {
				sum.Accepted += ack.Accepted
				sum.Rejected += ack.Rejected
				sum.Replicated += ack.Replicated
			}
		})
	}
	wg.Wait()
	return sum, firstErr
}

// IngestDetectionsAsync enqueues one frame without waiting for
// acknowledgments; completions accumulate inside the ingester until the next
// Flush. Backpressure still applies: the call blocks only when a
// destination's pipeline window is full.
func (ing *Ingester) IngestDetectionsAsync(ctx context.Context, dets []vision.Detection) {
	byAddr, _ := coalesce(ing, dets, observationOf)
	ing.statMu.Lock()
	ing.inflight += len(byAddr)
	ing.statMu.Unlock()
	for addr, obs := range byAddr {
		ing.enqueue(ctx, laneKey{addr: addr}, &wire.IngestBatch{Observations: obs}, ing.asyncDone)
	}
}

func (ing *Ingester) asyncDone(ack *wire.IngestAck, err error) {
	ing.statMu.Lock()
	defer ing.statMu.Unlock()
	ing.inflight--
	if err != nil {
		if ing.firstErr == nil {
			ing.firstErr = err
		}
	} else if ack != nil {
		ing.accepted += ack.Accepted
	}
	if ing.inflight == 0 {
		ing.statCond.Broadcast()
	}
}

// Flush blocks until every batch enqueued by IngestDetectionsAsync has been
// acknowledged, then returns (and resets) the accumulated primary-acceptance
// count and the first delivery error.
func (ing *Ingester) Flush() (int, error) {
	ing.statMu.Lock()
	defer ing.statMu.Unlock()
	for ing.inflight > 0 {
		ing.statCond.Wait()
	}
	accepted, err := ing.accepted, ing.firstErr
	ing.accepted, ing.firstErr = 0, nil
	return accepted, err
}

// Close drains and stops the per-worker sender lanes. It is safe against
// concurrent ingest: a producer that loses the race gets an "ingester
// closed" error for its batch.
func (ing *Ingester) Close() {
	ing.laneMu.Lock()
	if ing.closed {
		ing.laneMu.Unlock()
		return
	}
	ing.closed = true
	ing.mu.Lock()
	for _, s := range ing.senders {
		close(s.ch)
	}
	ing.mu.Unlock()
	ing.laneMu.Unlock()
	ing.lifecycle.Wait()
}
