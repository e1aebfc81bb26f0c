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

// Ingester routes observations to the workers owning their cameras, caching
// the routing table per epoch. It stands in for the per-camera feed
// processes of a real deployment, and the coordinator's ingest proxy
// delivers through one.
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
	epoch   uint64              // assignment epoch the route cache reflects
	routes  map[uint32][]string // routed cameras only: primary first, then replicas
	missed  bool                // a lookup missed since the last rebuild
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

// refreshLocked rebuilds the route cache when the assignment epoch changed,
// and reports whether it did. Caller holds ing.mu.
func (ing *Ingester) refreshLocked() bool {
	epoch := ing.coord.Epoch()
	if epoch == ing.epoch && ing.routes != nil {
		return false
	}
	ing.rebuildLocked(epoch)
	return true
}

// rebuildLocked reads the coordinator's routing table into the cache.
// Caller holds ing.mu.
func (ing *Ingester) rebuildLocked(epoch uint64) {
	ing.epoch = epoch
	ing.missed = false
	ing.routes = make(map[uint32][]string)
	for cam := range ing.coord.Assignment() {
		if addrs := ing.coord.RoutesFor(cam); len(addrs) > 0 {
			ing.routes[cam] = addrs
		}
	}
	ing.coord.reg.Counter("ingest.route_refreshes").Inc()
}

// routesFor returns a camera's delivery addresses. The first miss in an
// epoch makes sure the cache is fresh (membership may have changed
// mid-stream); later misses in the epoch answer nil without a rebuild, so a
// stream of observations naming unknown or removed cameras (a proxied
// client's, say) costs one rebuild per epoch, not one per observation, and
// adds nothing to the cache: it holds only assigned cameras.
func (ing *Ingester) routesFor(cam uint32) []string {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	rebuilt := ing.refreshLocked()
	addrs, ok := ing.routes[cam]
	if !ok {
		if !rebuilt && !ing.missed {
			ing.rebuildLocked(ing.epoch)
			addrs = ing.routes[cam]
		}
		ing.missed = true
	}
	return addrs
}

// coalesce converts items to observations and groups them per destination
// address (primaries and replicas alike), each group sorted by (camera,
// observation ID) so per-worker identity association is deterministic
// regardless of input order. It also returns how many observations had no
// live owner.
func coalesce[T any](ing *Ingester, items []T, toObs func(T) wire.Observation) (map[string][]wire.Observation, int) {
	byAddr := make(map[string][]wire.Observation)
	unrouted := 0
	for _, item := range items {
		obs := toObs(item)
		addrs := ing.routesFor(obs.Camera)
		if len(addrs) == 0 {
			unrouted++
		}
		for _, addr := range addrs {
			byAddr[addr] = append(byAddr[addr], obs)
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
// Frame encoding for each Call rides the transport's pooled buffers
// (wire.AppendMarshal into a borrowed wire.Buf), so the lane adds no
// per-frame wire allocations. The batch and its Observations, however, are
// deliberately NOT recycled after the ack: on the zero-copy in-proc
// transport the worker retains Observation.Feature backing arrays (staged
// evaluation holds references), so reusing them would corrupt the worker's
// state. Only the wire bytes are pooled; payload structs stay single-use on
// the producer side.
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
		job.done(ack, err)
	}
}

// Tick sends an empty clock frame to every live worker, advancing their
// observation time so track-loss detection and continuous-answer expiry run
// even on workers whose cameras saw nothing this frame. Real deployments get
// this for free from per-camera frame cadence. Tick returns once every
// worker acknowledged (or failed) the frame.
func (ing *Ingester) Tick(ctx context.Context, now time.Time) {
	frames := make(map[string][]wire.Observation)
	ing.mu.Lock()
	ing.refreshLocked()
	for _, addrs := range ing.routes {
		for _, addr := range addrs {
			frames[addr] = nil
		}
	}
	ing.mu.Unlock()
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
