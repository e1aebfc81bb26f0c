package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"stcam/internal/core"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// R3Handoff compares tracking handoff cost between vision-graph-scoped
// priming and broadcast priming as the camera network grows. A single target
// traverses a camera corridor; we count prime messages per begun handoff
// (every handoff primes, including the ones a local re-sight then aborts),
// next to the handoffs begun, aborted and claimed (a claim is an ownership
// move, the count TrackInfo reports). Expected shape: scoped cost is
// O(graph degree) per handoff (constant in network size); broadcast is
// O(workers) per handoff, so the gap widens linearly with the deployment.
func R3Handoff(s Scale) *Table {
	t := &Table{
		ID:     "R3",
		Title:  "Handoff cost: vision-graph scoped vs broadcast",
		Notes:  "one target traversing a camera corridor; 8 workers",
		Header: []string{"cameras", "strategy", "begun", "primes sent", "primes/begun", "aborted", "claims", "final camera"},
	}
	ctx := context.Background()
	for _, nCams := range []int{16, 64, 128} {
		for _, broadcast := range []bool{false, true} {
			opts := core.Options{
				LostAfter:        2 * time.Second,
				PrimeTTL:         time.Minute,
				BroadcastHandoff: broadcast,
			}
			c, err := core.NewLocalCluster(8, nil, opts)
			if err != nil {
				panic(err)
			}
			cams := corridor(nCams, 100)
			if err := c.Coordinator.AddCameras(ctx, cams, 60); err != nil {
				panic(err)
			}
			feat := vision.NewRandomFeature(rand.New(rand.NewSource(11)), 32)
			start := sim.DefaultStart
			deliver(ctx, c, wire.Observation{ObsID: 1, Camera: 1, Time: start, Pos: geo.Pt(30, 50), Feature: feat})
			trackID, ch, err := c.Coordinator.StartTrack(ctx, 1, feat, start)
			if err != nil {
				panic(err)
			}
			// Walk end to end at 10 m/s with 1 Hz observations.
			endX := float64(nCams)*100 - 30
			steps := int(endX-30) / 10
			net := c.Coordinator.Network()
			obsID := uint64(100)
			for i := 0; i <= steps; i++ {
				frac := float64(i) / float64(steps)
				p := geo.Pt(30+(endX-30)*frac, 50)
				now := start.Add(time.Duration(i+1) * time.Second)
				if covering := net.CamerasCovering(p); len(covering) > 0 {
					deliver(ctx, c, wire.Observation{ObsID: obsID, Camera: uint32(covering[0]), Time: now, Pos: p, Feature: feat})
					obsID++
				}
				clockTick(ctx, c, now)
			}
			drainTrack(ch)
			snap := c.Coordinator.Metrics().Snapshot()
			_, lastCam, _, _ := c.Coordinator.TrackInfo(trackID)
			primes, begun := snap.Counters["handoff.primes_sent"], snap.Counters["handoff.begun"]
			name := "scoped"
			if broadcast {
				name = "broadcast"
			}
			per := float64(primes) / float64(max(int(begun), 1))
			t.AddRow(nCams, name, begun, primes, fmt.Sprintf("%.1f", per),
				snap.Counters["handoff.aborted"], snap.Counters["handoff.completed"], lastCam)
			c.Stop()
		}
	}
	return t
}

func corridor(n int, span float64) []wire.CameraInfo {
	out := make([]wire.CameraInfo, n)
	for i := range out {
		out[i] = wire.CameraInfo{
			ID:      uint32(i + 1),
			Pos:     geo.Pt(span*(float64(i)+0.5), 50),
			HalfFOV: 3.14159265,
			Range:   span / 2,
		}
	}
	return out
}

func deliver(ctx context.Context, c *core.Cluster, obs wire.Observation) {
	addr, ok := c.Coordinator.RouteFor(obs.Camera)
	if !ok {
		return
	}
	c.Transport.Call(ctx, addr, &wire.IngestBatch{ //nolint:errcheck // bench traffic
		Camera: obs.Camera, FrameTime: obs.Time, Observations: []wire.Observation{obs},
	})
}

func clockTick(ctx context.Context, c *core.Cluster, now time.Time) {
	for _, w := range c.Workers {
		c.Transport.Call(ctx, w.Addr(), &wire.IngestBatch{FrameTime: now}) //nolint:errcheck // bench traffic
	}
}

func drainTrack(ch <-chan wire.TrackUpdate) []wire.TrackUpdate {
	var out []wire.TrackUpdate
	for {
		select {
		case u := <-ch:
			out = append(out, u)
		default:
			return out
		}
	}
}

// R4Reid measures re-identification accuracy (rank-1 and rank-5) versus
// feature noise and gallery size. Expected shape: accuracy is near-perfect at
// low noise, degrades with noise, and degrades faster for larger galleries
// (more confusable identities).
func R4Reid(s Scale) *Table {
	t := &Table{
		ID:     "R4",
		Title:  "Re-identification accuracy",
		Notes:  "64-dim features; probes are noisy views of enrolled identities",
		Header: []string{"gallery", "noise σ", "rank-1", "rank-5"},
	}
	probes := s.n(400)
	for _, gallerySize := range []int{10, 100, 1000} {
		for _, noise := range []float64{0.05, 0.2, 0.5, 1.0} {
			rng := rand.New(rand.NewSource(12))
			g := vision.NewGallery()
			feats := make(map[uint64]vision.Feature, gallerySize)
			for id := uint64(1); id <= uint64(gallerySize); id++ {
				f := vision.NewRandomFeature(rng, 64)
				feats[id] = f
				g.Enroll(id, f)
			}
			rank1, rank5 := 0, 0
			for p := 0; p < probes; p++ {
				id := uint64(1 + rng.Intn(gallerySize))
				matches, err := g.Match(feats[id].Perturb(rng, noise), 5)
				if err != nil {
					panic(err)
				}
				if matches[0].ID == id {
					rank1++
				}
				for _, m := range matches {
					if m.ID == id {
						rank5++
						break
					}
				}
			}
			t.AddRow(gallerySize, noise,
				fmt.Sprintf("%.3f", float64(rank1)/float64(probes)),
				fmt.Sprintf("%.3f", float64(rank5)/float64(probes)))
		}
	}
	return t
}

// R12Trajectory measures trajectory reconstruction quality versus detector
// false-negative rate: a tracked target's reconstructed path is compared to
// the simulator's ground truth. Expected shape: mean spatial error stays near
// the position-noise floor while completeness (fraction of ticks with a
// matched observation) falls roughly as (1 - FN rate).
func R12Trajectory(s Scale) *Table {
	t := &Table{
		ID:     "R12",
		Title:  "Trajectory reconstruction vs detector noise",
		Notes:  "single target, full-coverage grid, 2 m position noise",
		Header: []string{"FN rate", "truth ticks", "observations", "completeness", "mean err (m)"},
	}
	ctx := context.Background()
	ticks := s.n(300)
	for _, fn := range []float64{0, 0.1, 0.3, 0.5} {
		c, err := core.NewLocalCluster(4, nil, core.Options{CellSize: 50, LostAfter: time.Hour})
		if err != nil {
			panic(err)
		}
		world := geo.RectOf(0, 0, 2000, 2000)
		cams := omniGrid(world, 8)
		if err := c.Coordinator.AddCameras(ctx, cams, 100); err != nil {
			panic(err)
		}
		w, err := sim.NewWorld(sim.Config{
			World:       world,
			NumObjects:  1,
			Model:       &sim.RandomWaypoint{World: world, MinSpeed: 10, MaxSpeed: 20},
			Seed:        13,
			FeatureDim:  32,
			RecordTruth: true,
		})
		if err != nil {
			panic(err)
		}
		det := vision.NewDetector(vision.DetectorConfig{
			PosNoise:     2,
			FeatureNoise: 0.03,
			FalseNegRate: fn,
			FeatureDim:   32,
			Seed:         14,
		})
		ing := core.NewIngester(c.Coordinator, c.Transport)
		net := wireToNetwork(cams)
		net.BuildIndex(0)
		w.Run(ticks, net, det, func(_ int, obs []vision.Detection) {
			ing.IngestDetections(ctx, obs) //nolint:errcheck // bench traffic
		})
		// Reconstruct from the store: take the target with the most records
		// (association may fragment identities under heavy noise).
		window := wire.TimeWindow{From: sim.DefaultStart, To: w.Now()}
		recs, err := c.Coordinator.Range(ctx, world, window, 0)
		if err != nil {
			panic(err)
		}
		truth := w.Truth(1)
		var sumErr float64
		matched := 0
		coveredTicks := make(map[int64]bool)
		for _, r := range recs {
			gt, err := truth.At(r.Time)
			if err != nil {
				continue
			}
			sumErr += r.Pos.Dist(gt)
			matched++
			coveredTicks[r.Time.Unix()] = true
		}
		// Completeness = fraction of simulation ticks with at least one
		// observation (overlapping FOVs can yield several per tick).
		completeness := float64(len(coveredTicks)) / float64(ticks)
		meanErr := 0.0
		if matched > 0 {
			meanErr = sumErr / float64(matched)
		}
		t.AddRow(fn, ticks, matched, fmt.Sprintf("%.3f", completeness), fmt.Sprintf("%.2f", meanErr))
		ing.Close()
		c.Stop()
	}
	return t
}
