// Package stcam is a distributed framework for spatio-temporal analysis on
// large-scale camera networks.
//
// A deployment consists of one Coordinator and a fleet of Workers. Cameras
// are registered at the coordinator, which partitions them across workers
// (spatially by default, so neighboring cameras share a worker). Each worker
// ingests its cameras' detection streams into a local spatio-temporal index
// and answers the coordinator's sub-queries; the coordinator routes queries
// to the workers whose cameras could hold matching observations and merges
// the partial results.
//
// The framework supports:
//
//   - Snapshot queries: spatio-temporal Range, KNN, Count, and Trajectory.
//   - Continuous queries: standing range/count predicates whose answers are
//     maintained incrementally as positive/negative deltas.
//   - Target-centric tracking: a tracker follows a target across cameras,
//     migrating between workers via vision-graph-scoped handoff (only the
//     topologically adjacent cameras are primed, not the whole network).
//   - Re-identification: appearance search over each worker's identities.
//
// The quickest way in is NewLocalCluster, which assembles everything
// in-process:
//
//	cl, err := stcam.NewLocalCluster(4, nil, stcam.Options{})
//	if err != nil { ... }
//	defer cl.Stop()
//	cl.Coordinator.AddCameras(ctx, cameras, 50)
//	// stream wire.IngestBatch messages to the workers, then:
//	recs, err := cl.Coordinator.Range(ctx, rect, window, 0)
//
// Production deployments run cmd/stcamd for each node over TCP; see README.md.
package stcam

import (
	"context"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/obs"
	"stcam/internal/serve"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// Geometry primitives.
type (
	// Point is a planar position in meters.
	Point = geo.Point
	// Rect is an axis-aligned rectangle with inclusive boundaries.
	Rect = geo.Rect
	// Trajectory is a time-ordered path of positions.
	Trajectory = geo.Trajectory
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// RectOf builds the rectangle with the given corners, normalizing order.
func RectOf(x0, y0, x1, y1 float64) Rect { return geo.RectOf(x0, y0, x1, y1) }

// Framework types.
type (
	// Options tunes the framework; the zero value selects sane defaults.
	Options = core.Options
	// Coordinator is the head node and client gateway.
	Coordinator = core.Coordinator
	// Worker is one analysis node.
	Worker = core.Worker
	// Cluster bundles a coordinator and workers over one transport.
	Cluster = core.Cluster
	// HACluster bundles a replicated coordinator group, its workers, and
	// the per-node fault-injection views they run over.
	HACluster = core.HACluster
	// Ingester routes detection batches to the owning workers, coalescing
	// each frame into one sequenced RPC per worker and pipelining frames.
	Ingester = core.Ingester
	// IngesterOptions tunes an Ingester's pipeline depth and delivery mode.
	IngesterOptions = core.IngesterOptions
)

// Wire-protocol types used at the public API boundary.
type (
	// CameraInfo describes a camera registration.
	CameraInfo = wire.CameraInfo
	// TimeWindow is a closed query time interval.
	TimeWindow = wire.TimeWindow
	// Observation is one detection event on the wire.
	Observation = wire.Observation
	// ResultRecord is one observation in a query result.
	ResultRecord = wire.ResultRecord
	// KNNRecord is a nearest-neighbor result with its squared distance.
	KNNRecord = wire.KNNRecord
	// ContinuousUpdate is an incremental answer delta from a standing query.
	ContinuousUpdate = wire.ContinuousUpdate
	// HeatCell is one cell of an observation-density heatmap.
	HeatCell = wire.HeatCell
	// TrackUpdate is a position report from an active track.
	TrackUpdate = wire.TrackUpdate
	// NodeID names a cluster node.
	NodeID = wire.NodeID
)

// Continuous-query kinds.
const (
	// ContinuousRange maintains the set of targets inside a rectangle.
	ContinuousRange = wire.ContinuousRange
	// ContinuousCount additionally reports cardinality threshold crossings.
	ContinuousCount = wire.ContinuousCount
)

// Transports and partitioners.
type (
	// Transport moves protocol messages between nodes.
	Transport = cluster.Transport
	// Partitioner assigns cameras to workers.
	Partitioner = cluster.Partitioner
	// SpatialPartitioner keeps neighboring cameras on the same worker.
	SpatialPartitioner = cluster.SpatialPartitioner
	// HashPartitioner spreads cameras with rendezvous hashing.
	HashPartitioner = cluster.HashPartitioner
	// RoundRobinPartitioner deals cameras to workers in ID order.
	RoundRobinPartitioner = cluster.RoundRobinPartitioner
)

// Resilience and fault injection.
type (
	// Policy tunes outbound-RPC deadlines, retry/backoff, and circuit
	// breaking; the zero value selects the documented defaults.
	Policy = cluster.Policy
	// Resilient decorates any Transport with deadlines, retries, and
	// per-peer circuit breakers. Nodes wrap their transport in one
	// automatically; wrap explicitly to share a policy across clients.
	Resilient = cluster.Resilient
	// Faulty decorates any Transport with deterministic, seeded fault
	// injection (drops, latency, hangs, partitions, duplicates).
	Faulty = cluster.Faulty
	// FaultProgram describes the faults injected on one link.
	FaultProgram = cluster.FaultProgram
	// FaultyNet hands each node its own seeded Faulty view over one base
	// transport, making symmetric partitions and scripted link weather
	// (HealAfter, FlapEvery) expressible across a whole cluster.
	FaultyNet = cluster.FaultyNet
	// QueryMeta reports answer completeness for a scatter-gather query.
	QueryMeta = core.QueryMeta
)

// ErrCircuitOpen is returned for calls rejected by an open circuit breaker;
// it wraps the transport's unreachable error.
var ErrCircuitOpen = cluster.ErrCircuitOpen

// Observability: each node can expose a small HTTP surface with Prometheus
// text-format metrics (/metrics), liveness and readiness probes (/healthz,
// /readyz), and the Go runtime profiler (/debug/pprof/). cmd/stcamd mounts
// it behind the -http flag.
type (
	// ObsOptions configures a node's observability endpoint: the node label,
	// the metrics snapshot source, and the readiness probe.
	ObsOptions = obs.Options
	// ObsServer is a running observability endpoint.
	ObsServer = obs.Server
)

// ServeObs binds addr and serves the observability endpoints until Close.
func ServeObs(addr string, o ObsOptions) (*ObsServer, error) { return obs.Serve(addr, o) }

// NewResilient wraps a transport with retry, deadline, and circuit-breaker
// behaviour per the policy.
func NewResilient(inner Transport, p Policy) *Resilient { return cluster.NewResilient(inner, p) }

// NewFaulty wraps a transport with seeded fault injection.
func NewFaulty(inner Transport, seed int64) *Faulty { return cluster.NewFaulty(inner, seed) }

// NewFaultyNet wraps a base transport in a cluster-wide fault coordinator:
// build each node over its own View and partitions become symmetric.
func NewFaultyNet(base Transport, seed int64) *FaultyNet { return cluster.NewFaultyNet(base, seed) }

// NewInProc returns an in-process transport (tests, single-binary clusters).
func NewInProc(opts ...cluster.InProcOption) *cluster.InProc { return cluster.NewInProc(opts...) }

// NewTCP returns the production TCP transport.
func NewTCP() *cluster.TCP { return cluster.NewTCP() }

// NewCoordinator constructs a coordinator node. A nil partitioner selects
// spatial partitioning.
func NewCoordinator(addr string, t Transport, p Partitioner, opts Options) *Coordinator {
	return core.NewCoordinator(addr, t, p, opts)
}

// NewWorker constructs a worker node that will register with the coordinator
// at coordAddr.
func NewWorker(id NodeID, addr, coordAddr string, t Transport, opts Options) *Worker {
	return core.NewWorker(id, addr, coordAddr, t, opts)
}

// NewLocalCluster assembles a coordinator plus n workers in-process.
func NewLocalCluster(n int, p Partitioner, opts Options) (*Cluster, error) {
	return core.NewLocalCluster(n, p, opts)
}

// NewLocalClusterOver is NewLocalCluster over a caller-supplied transport,
// typically a Faulty decorator for failure testing.
func NewLocalClusterOver(t Transport, n int, p Partitioner, opts Options) (*Cluster, error) {
	return core.NewLocalClusterOver(t, n, p, opts)
}

// NewHACluster assembles m replicated coordinators (the first boots leader)
// plus n workers over a seeded FaultyNet, in-process — the harness for
// failover and partition chaos testing.
func NewHACluster(m, n int, p Partitioner, seed int64, opts Options) (*HACluster, error) {
	return core.NewHACluster(m, n, p, seed, opts)
}

// Serving plane: the coordinator front end for heavy read traffic — shared
// continuous-query fan-out, an epoch-keyed result cache, and admission
// control with priority shedding and per-tenant quotas. cmd/stcamd mounts it
// behind the -serve flag.
type (
	// Frontend is a running serving plane, installed as the coordinator's
	// gateway.
	Frontend = serve.Frontend
	// ServeOptions configures the serving plane (cache budget and TTL,
	// quota rate, shed watermark, subscriber buffering).
	ServeOptions = serve.Options
	// Priority is an RPC priority class for admission control.
	Priority = cluster.Priority
)

// Priority classes, in shed order: background sheds first, interactive at
// twice the watermark, control never.
const (
	PriorityControl     = cluster.PriorityControl
	PriorityInteractive = cluster.PriorityInteractive
	PriorityBackground  = cluster.PriorityBackground
)

// NewFrontend attaches a serving plane to the coordinator and returns it.
func NewFrontend(c *Coordinator, o ServeOptions) *Frontend { return serve.New(c, o) }

// WithPriority tags outbound calls on this context with a priority class the
// serving plane sheds by.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return cluster.WithPriority(ctx, p)
}

// WithTenant tags outbound calls on this context with the tenant charged for
// the serving plane's per-tenant query quota.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return cluster.WithTenant(ctx, tenant)
}

// NewIngester returns a detection router bound to a coordinator, with
// default pipelining. Call Close when done to drain the send lanes.
func NewIngester(c *Coordinator, t Transport) *Ingester { return core.NewIngester(c, t) }

// NewIngesterWith is NewIngester with explicit pipeline options (depth,
// serial mode, sender identity).
func NewIngesterWith(c *Coordinator, t Transport, o IngesterOptions) *Ingester {
	return core.NewIngesterWith(c, t, o)
}

// Camera modeling.
type (
	// Camera is a calibrated camera with a sector field of view.
	Camera = camera.Camera
	// CameraNetwork is the camera topology plus the vision graph.
	CameraNetwork = camera.Network
	// CameraID identifies a camera.
	CameraID = camera.ID
	// LayoutConfig parameterizes synthetic deployments.
	LayoutConfig = camera.LayoutConfig
)

// NewCameraNetwork returns an empty camera network.
func NewCameraNetwork() *CameraNetwork { return camera.NewNetwork() }

// NewCamera constructs a camera; see camera.New for parameter semantics.
func NewCamera(id CameraID, pos Point, orient, halfFOV, rng float64) *Camera {
	return camera.New(id, pos, orient, halfFOV, rng)
}

// GridLayout places rows×cols cameras on a lattice over the world.
func GridLayout(cfg LayoutConfig, rows, cols int) *CameraNetwork {
	return camera.GridLayout(cfg, rows, cols)
}

// CorridorLayout places n cameras along a corridor (chain topology).
func CorridorLayout(cfg LayoutConfig, n int) *CameraNetwork {
	return camera.CorridorLayout(cfg, n)
}

// Simulation and synthetic analytics (the evaluation substrate).
type (
	// World is a deterministic simulation of moving objects.
	World = sim.World
	// WorldConfig parameterizes a simulation.
	WorldConfig = sim.Config
	// Mobility is a pluggable movement model.
	Mobility = sim.Mobility
	// RandomWaypoint is the classic waypoint mobility model.
	RandomWaypoint = sim.RandomWaypoint
	// RoadGrid moves objects along a Manhattan road lattice.
	RoadGrid = sim.RoadGrid
	// Detector simulates a camera analytics pipeline.
	Detector = vision.Detector
	// DetectorConfig sets the detector's error model.
	DetectorConfig = vision.DetectorConfig
	// Detection is one simulated analytics event.
	Detection = vision.Detection
	// Feature is an appearance embedding.
	Feature = vision.Feature
	// Gallery answers re-identification queries over enrolled identities.
	Gallery = vision.Gallery
)

// NewWorld builds a simulation world.
func NewWorld(cfg WorldConfig) (*World, error) { return sim.NewWorld(cfg) }

// NewDetector builds a simulated detector.
func NewDetector(cfg DetectorConfig) *Detector { return vision.NewDetector(cfg) }

// NewGallery returns an empty re-identification gallery.
func NewGallery() *Gallery { return vision.NewGallery() }

// SimStart is the fixed simulation epoch used by deterministic runs.
var SimStart = sim.DefaultStart
