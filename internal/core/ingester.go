package core

import (
	"context"
	"fmt"
	"os"
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
	// concurrent Calls to a worker. Defaults to the coordinator's
	// Options.IngestPipelineDepth.
	PipelineDepth int
	// Serial reverts to the pre-pipeline path: one blocking RPC per camera
	// group, primary then replicas, in ascending camera order. It is the
	// differential-test baseline and the serial column of experiment R15.
	Serial bool
	// Source identifies this ingester for idempotent sequenced delivery;
	// it scopes the per-worker sequence numbers stamped on every batch.
	// Defaults to a process-unique name. Two ingesters must never share a
	// Source: a worker keeps one delivery cursor per Source.
	Source string
}

// ingesterIDs makes default Source names unique within a process.
var ingesterIDs atomic.Uint64

// Ingester routes detection batches to the workers owning their cameras,
// caching the routing table per epoch. It stands in for the per-camera feed
// processes of a real deployment.
//
// The default mode is pipelined: each frame's detections are coalesced into
// one multi-camera batch per destination worker, and a persistent per-worker
// sender delivers batches from a bounded queue (PipelineDepth), stamping
// each with a (Source, Seq) pair so at-least-once retries and transport
// duplicates are applied at most once, in order. Safe for concurrent use.
type Ingester struct {
	coord     *Coordinator
	transport cluster.Transport
	opts      IngesterOptions

	mu      sync.Mutex
	epoch   uint64
	routes  map[uint32][]string // primary first, then replicas
	senders map[string]*ingestSender
	closed  bool

	lifecycle sync.WaitGroup

	// Async-path accounting: Flush waits for inflight to drain and collects
	// the accumulated acceptance count and first error.
	statMu   sync.Mutex
	statCond *sync.Cond
	inflight int
	accepted int
	firstErr error
}

// ingestSender is one worker's delivery lane: a bounded channel (the
// pipeline window) drained by a single goroutine that owns the sequence
// counter, so delivery to each worker is ordered even with concurrent
// producers.
type ingestSender struct {
	ch chan ingestJob
}

type ingestJob struct {
	ctx   context.Context
	batch *wire.IngestBatch
	done  func(*wire.IngestAck, error)
}

// NewIngester returns an ingest router bound to a coordinator, with the
// coordinator's configured pipeline depth.
func NewIngester(coord *Coordinator, transport cluster.Transport) *Ingester {
	return NewIngesterWith(coord, transport, IngesterOptions{})
}

// NewIngesterWith is NewIngester with explicit pipeline options.
func NewIngesterWith(coord *Coordinator, transport cluster.Transport, o IngesterOptions) *Ingester {
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = coord.opts.IngestPipelineDepth
	}
	if o.Source == "" {
		o.Source = fmt.Sprintf("ingest-%d-%d", os.Getpid(), ingesterIDs.Add(1))
	}
	ing := &Ingester{
		coord:     coord,
		transport: transport,
		opts:      o,
		routes:    make(map[uint32][]string),
		senders:   make(map[string]*ingestSender),
	}
	ing.statCond = sync.NewCond(&ing.statMu)
	return ing
}

// refreshLocked rebuilds the route cache when the assignment epoch changed.
// Caller holds ing.mu.
func (ing *Ingester) refreshLocked() {
	epoch := ing.coord.Epoch()
	if epoch == ing.epoch && len(ing.routes) > 0 {
		return
	}
	ing.epoch = epoch
	ing.routes = make(map[uint32][]string)
	for cam := range ing.coord.Assignment() {
		if addrs := ing.coord.RoutesFor(cam); len(addrs) > 0 {
			ing.routes[cam] = addrs
		}
	}
}

// routesFor returns a camera's delivery addresses, refreshing the cache once
// on a miss (assignment may have changed mid-stream).
func (ing *Ingester) routesFor(cam uint32) []string {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.refreshLocked()
	addrs, ok := ing.routes[cam]
	if !ok {
		ing.epoch = 0
		ing.refreshLocked()
		addrs = ing.routes[cam]
	}
	return addrs
}

// liveAddrs returns every distinct delivery address, sorted.
func (ing *Ingester) liveAddrs() []string {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.refreshLocked()
	seen := make(map[string]bool)
	var out []string
	for _, addrs := range ing.routes {
		for _, addr := range addrs {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sort.Strings(out)
	return out
}

// coalesce converts detections to observations and groups them per
// destination address (primaries and replicas alike), each group sorted by
// (camera, observation ID) so per-worker identity association is
// deterministic regardless of input order.
func (ing *Ingester) coalesce(dets []vision.Detection) map[string][]wire.Observation {
	byAddr := make(map[string][]wire.Observation)
	for _, d := range dets {
		obs := wire.Observation{
			ObsID:   d.ObsID,
			Camera:  uint32(d.Camera),
			Time:    d.Time,
			Pos:     d.Pos,
			Feature: d.Feature,
			TrueID:  d.TrueID,
		}
		for _, addr := range ing.routesFor(obs.Camera) {
			byAddr[addr] = append(byAddr[addr], obs)
		}
	}
	for _, obs := range byAddr {
		sortObservations(obs)
	}
	return byAddr
}

func sortObservations(obs []wire.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Camera != obs[j].Camera {
			return obs[i].Camera < obs[j].Camera
		}
		return obs[i].ObsID < obs[j].ObsID
	})
}

// enqueue hands a batch to addr's sender lane, starting the lane on first
// use. Blocks while the lane's queue is full (backpressure).
func (ing *Ingester) enqueue(ctx context.Context, addr string, batch *wire.IngestBatch, done func(*wire.IngestAck, error)) {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		done(nil, fmt.Errorf("core: ingester closed"))
		return
	}
	s, ok := ing.senders[addr]
	if !ok {
		s = &ingestSender{ch: make(chan ingestJob, ing.opts.PipelineDepth)}
		ing.senders[addr] = s
		ing.lifecycle.Add(1)
		go ing.runSender(addr, s)
	}
	ing.mu.Unlock()
	s.ch <- ingestJob{ctx: ctx, batch: batch, done: done}
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
		job.batch.Source = ing.opts.Source
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
	addrs := ing.liveAddrs()
	if ing.opts.Serial {
		for _, addr := range addrs {
			ing.transport.Call(ctx, addr, &wire.IngestBatch{FrameTime: now}) //nolint:errcheck // clock ticks are best-effort
		}
		return
	}
	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		ing.enqueue(ctx, addr, &wire.IngestBatch{FrameTime: now}, func(*wire.IngestAck, error) {
			wg.Done() // clock ticks are best-effort
		})
	}
	wg.Wait()
}

// IngestDetections delivers one frame's detections to the owning workers and
// waits for every acknowledgment, returning the number of observations
// accepted by primary owners. In the default pipelined mode the frame
// becomes one coalesced multi-camera batch per destination worker, delivered
// concurrently through the per-worker lanes.
func (ing *Ingester) IngestDetections(ctx context.Context, dets []vision.Detection) (int, error) {
	if ing.opts.Serial {
		return ing.ingestSerial(ctx, dets)
	}
	byAddr := ing.coalesce(dets)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		firstErr error
	)
	for addr, obs := range byAddr {
		wg.Add(1)
		batch := &wire.IngestBatch{Observations: obs}
		ing.enqueue(ctx, addr, batch, func(ack *wire.IngestAck, err error) {
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
				accepted += ack.Accepted
			}
		})
	}
	wg.Wait()
	return accepted, firstErr
}

// IngestDetectionsAsync enqueues one frame without waiting for
// acknowledgments; completions accumulate inside the ingester until the next
// Flush. Backpressure still applies: the call blocks only when a
// destination's pipeline window is full.
func (ing *Ingester) IngestDetectionsAsync(ctx context.Context, dets []vision.Detection) {
	if ing.opts.Serial {
		accepted, err := ing.ingestSerial(ctx, dets)
		ing.statMu.Lock()
		ing.accepted += accepted
		if err != nil && ing.firstErr == nil {
			ing.firstErr = err
		}
		ing.statMu.Unlock()
		return
	}
	byAddr := ing.coalesce(dets)
	ing.statMu.Lock()
	ing.inflight += len(byAddr)
	ing.statMu.Unlock()
	for addr, obs := range byAddr {
		ing.enqueue(ctx, addr, &wire.IngestBatch{Observations: obs}, ing.asyncDone)
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

// Close drains and stops the per-worker sender lanes. Callers must not
// ingest concurrently with (or after) Close.
func (ing *Ingester) Close() {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return
	}
	ing.closed = true
	senders := make([]*ingestSender, 0, len(ing.senders))
	for _, s := range ing.senders {
		senders = append(senders, s)
	}
	ing.mu.Unlock()
	for _, s := range senders {
		close(s.ch)
	}
	ing.lifecycle.Wait()
}

// ingestSerial is the pre-pipeline delivery path: one unsequenced blocking
// RPC per camera group, primary then replicas, in ascending camera order
// (sorted so identity association matches the pipelined path's coalesced
// batches observation for observation).
func (ing *Ingester) ingestSerial(ctx context.Context, dets []vision.Detection) (int, error) {
	byCam := make(map[uint32][]wire.Observation)
	for _, d := range dets {
		obs := wire.Observation{
			ObsID:   d.ObsID,
			Camera:  uint32(d.Camera),
			Time:    d.Time,
			Pos:     d.Pos,
			Feature: d.Feature,
			TrueID:  d.TrueID,
		}
		byCam[obs.Camera] = append(byCam[obs.Camera], obs)
	}
	cams := make([]uint32, 0, len(byCam))
	for cam := range byCam {
		cams = append(cams, cam)
	}
	sort.Slice(cams, func(i, j int) bool { return cams[i] < cams[j] })
	accepted := 0
	var firstErr error
	for _, cam := range cams {
		addrs := ing.routesFor(cam)
		obs := byCam[cam]
		sortObservations(obs)
		for i, addr := range addrs {
			resp, err := ing.transport.Call(ctx, addr, &wire.IngestBatch{Camera: cam, Observations: obs})
			if err != nil {
				if firstErr == nil && i == 0 {
					firstErr = err
				}
				continue
			}
			// Accepted counts primary-owner inserts only, so summing across
			// the primary and replica acks never double-counts.
			if ack, ok := resp.(*wire.IngestAck); ok {
				accepted += ack.Accepted
			}
		}
	}
	return accepted, firstErr
}
