package bench

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// benchWorld builds the standard evaluation deployment: a square world with a
// camsPerSide² omni grid and a seeded object population, plus the detection
// batches for `ticks` simulation steps (pre-generated so measurement excludes
// simulation cost).
type workload struct {
	world   geo.Rect
	cams    []wire.CameraInfo
	batches [][]vision.Detection // one slice per tick
	tickDur time.Duration
}

func makeWorkload(camsPerSide, objects, ticks int, seed int64) *workload {
	world := geo.RectOf(0, 0, 2000, 2000)
	cams := omniGrid(world, camsPerSide)
	net := wireToNetwork(cams)
	net.BuildIndex(0)
	det := vision.NewDetector(vision.DetectorConfig{
		PosNoise:     1.0,
		FeatureNoise: 0.05,
		FeatureDim:   32,
		Seed:         seed,
	})
	w, err := sim.NewWorld(sim.Config{
		World:      world,
		NumObjects: objects,
		Model:      &sim.RandomWaypoint{World: world, MinSpeed: 5, MaxSpeed: 20},
		Seed:       seed,
		FeatureDim: 32,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail at runtime
	}
	wl := &workload{world: world, cams: cams, tickDur: time.Second}
	w.Run(ticks, net, det, func(_ int, obs []vision.Detection) {
		wl.batches = append(wl.batches, obs)
	})
	return wl
}

func (wl *workload) totalObs() int {
	n := 0
	for _, b := range wl.batches {
		n += len(b)
	}
	return n
}

// omniGrid lays out side×side omnidirectional cameras covering the world.
func omniGrid(world geo.Rect, side int) []wire.CameraInfo {
	out := make([]wire.CameraInfo, 0, side*side)
	cw, ch := world.Width()/float64(side), world.Height()/float64(side)
	rng := 0.8 * math.Max(cw, ch)
	id := uint32(1)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			out = append(out, wire.CameraInfo{
				ID:      id,
				Pos:     geo.Pt(world.Min.X+(float64(c)+0.5)*cw, world.Min.Y+(float64(r)+0.5)*ch),
				HalfFOV: math.Pi,
				Range:   rng,
			})
			id++
		}
	}
	return out
}

// wireToNetwork builds a camera.Network from wire camera infos.
func wireToNetwork(cams []wire.CameraInfo) *camera.Network {
	net := camera.NewNetwork()
	for _, ci := range cams {
		net.Add(camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range))
	}
	return net
}

// ingestAll streams the workload into a cluster through the pipelined
// Ingester: frames are coalesced into one batch per owning worker and kept
// in flight up to the pipeline depth, which is how a production feed process
// would deliver them.
func ingestAll(ctx context.Context, c *core.Cluster, wl *workload) (int, time.Duration) {
	ing := core.NewIngesterWith(c.Coordinator, c.Transport, core.IngesterOptions{PipelineDepth: 4})
	defer ing.Close()
	start := time.Now()
	for _, obs := range wl.batches {
		ing.IngestDetectionsAsync(ctx, obs)
	}
	accepted, err := ing.Flush()
	if err != nil {
		panic(err) // fault-free transport; cannot fail at runtime
	}
	return accepted, time.Since(start)
}

// R1Ingest measures ingest throughput (accepted observations/second) as the
// worker count grows, against the centralized baseline. Expected shape:
// near-linear scaling for the distributed system until coordination costs
// flatten it; the centralized server is a single horizontal line.
func R1Ingest(s Scale) *Table {
	t := &Table{
		ID:     "R1",
		Title:  "Ingest throughput vs worker count",
		Notes:  "16×16 camera grid, random-waypoint objects; events pre-generated",
		Header: []string{"workers", "events", "distributed ev/s", "centralized ev/s", "speedup"},
	}
	wl := makeWorkload(16, s.n(400), s.n(60), 1)

	centralPass := func() float64 {
		c := newCentral(50)
		start := time.Now()
		for _, b := range wl.batches {
			c.Ingest(b)
		}
		return float64(wl.totalObs()) / time.Since(start).Seconds()
	}
	ctx := context.Background()
	distPass := func(workers int) (float64, int) {
		c, err := core.NewLocalCluster(workers, nil, core.Options{CellSize: 50})
		if err != nil {
			panic(err)
		}
		defer c.Stop()
		if err := c.Coordinator.AddCameras(ctx, wl.cams, 100); err != nil {
			panic(err)
		}
		accepted, d := ingestAll(ctx, c, wl)
		return float64(accepted) / d.Seconds(), accepted
	}

	// Each row runs five pairs back to back: a centralized pass, then a
	// distributed one, each into a fresh server or cluster. The speedup is
	// the median of the per-pair ratios, so host load that slows both halves
	// of a pair cancels instead of moving one column's median alone.
	const pairs = 5
	for _, workers := range []int{1, 2, 4, 8, 16} {
		var dist, central, speedup []float64
		accepted := 0
		for range pairs {
			c := centralPass()
			d, n := distPass(workers)
			dist, central, speedup = append(dist, d), append(central, c), append(speedup, d/c)
			accepted = n
		}
		t.AddRow(workers, accepted, median(dist), median(central), fmt.Sprintf("%.2fx", median(speedup)))
	}
	return t
}

// median returns the middle value of xs (the upper middle for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// chunkDetections re-frames the workload's detections into fixed-size ingest
// frames, making batch size an independent experimental axis.
func chunkDetections(batches [][]vision.Detection, size int) [][]vision.Detection {
	var flat []vision.Detection
	for _, b := range batches {
		flat = append(flat, b...)
	}
	var out [][]vision.Detection
	for i := 0; i < len(flat); i += size {
		j := i + size
		if j > len(flat) {
			j = len(flat)
		}
		out = append(out, flat[i:j])
	}
	return out
}

// rpcLatency models one LAN round trip per ingest RPC. Over the raw in-proc
// transport a call is a function invocation and coalescing has nothing to
// amortize; a fixed per-call delay restores the cost structure the pipeline
// exists for (and that a TCP deployment pays on every Call).
const rpcLatency = 200 * time.Microsecond

// runFramedIngest feeds pre-framed detections through a fresh cluster at
// the given pipeline depth (0 = the serial reference) and returns accepted
// observations per second. Worker links carry rpcLatency per call, injected
// after setup so only the measured ingest pays it.
func runFramedIngest(ctx context.Context, workers int, cams []wire.CameraInfo, frames [][]vision.Detection, depth int) float64 {
	faulty := cluster.NewFaulty(cluster.NewInProc(), 1)
	c, err := core.NewLocalClusterOver(faulty, workers, nil, core.Options{CellSize: 50})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	if err := c.Coordinator.AddCameras(ctx, cams, 100); err != nil {
		panic(err)
	}
	for _, w := range c.Workers {
		faulty.SetProgram(w.Addr(), cluster.FaultProgram{Latency: rpcLatency})
	}
	ing := core.NewIngesterWith(c.Coordinator, c.Transport, core.IngesterOptions{PipelineDepth: max(depth, 1)})
	defer ing.Close()
	start := time.Now()
	accepted := 0
	if depth == 0 {
		// The serial reference: one blocking call per camera group, in
		// ascending camera order, the delivery model the pipeline replaced.
		for _, f := range frames {
			g := slices.Clone(f)
			slices.SortStableFunc(g, func(a, b vision.Detection) int { return cmp.Compare(a.Camera, b.Camera) })
			for len(g) > 0 {
				n := 1
				for n < len(g) && g[n].Camera == g[0].Camera {
					n++
				}
				k, err := ing.IngestDetections(ctx, g[:n])
				if err != nil {
					panic(err)
				}
				accepted += k
				g = g[n:]
			}
		}
	} else {
		for _, f := range frames {
			ing.IngestDetectionsAsync(ctx, f)
		}
		if accepted, err = ing.Flush(); err != nil {
			panic(err)
		}
	}
	return float64(accepted) / time.Since(start).Seconds()
}

// R15IngestPipeline measures ingest throughput across batch size × pipeline
// depth × worker count, with the serial one-camera-one-blocking-RPC path as
// the baseline for every cell. Expected shape: coalescing wins as soon as a
// frame spans several cameras (fewer, larger RPCs), and depth adds a further
// factor by overlapping frames; the serial column is flat.
func R15IngestPipeline(s Scale) *Table {
	t := &Table{
		ID:     "R15",
		Title:  "Pipelined ingest: batch size × pipeline depth × workers",
		Notes:  "16×16 grid; 200µs injected RPC latency; same detections re-framed per batch size; serial = one blocking RPC per camera",
		Header: []string{"workers", "batch", "depth", "serial ev/s", "pipelined ev/s", "speedup"},
	}
	wl := makeWorkload(16, s.n(400), s.n(40), 2)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{16, 64, 256} {
			frames := chunkDetections(wl.batches, batch)
			serial := runFramedIngest(ctx, workers, wl.cams, frames, 0)
			for _, depth := range []int{1, 4} {
				rate := runFramedIngest(ctx, workers, wl.cams, frames, depth)
				t.AddRow(workers, batch, depth, serial, rate, fmt.Sprintf("%.2fx", rate/serial))
			}
		}
	}
	return t
}
