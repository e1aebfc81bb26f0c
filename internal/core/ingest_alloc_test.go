package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// ingestFixture is one worker shaped like an ingest.plain worker (50 m cells,
// 10 min retention, 2 min seal horizon) owning an 8×8 camera grid as
// primary, fed sequenced batches of 100 detections one second apart
// straight through onIngest. A featured fixture gives every row the 32-d
// feature of one of 50 objects. Batches come from a ring built once and
// restamped with fresh sequence numbers, times and observation IDs, so
// feeding the worker allocates nothing.
type ingestFixture struct {
	w     *Worker
	ring  []*wire.IngestBatch
	seq   uint64
	obsID uint64
}

func newIngestFixture(tb testing.TB, featured bool) *ingestFixture {
	tb.Helper()
	const ring, perBatch, objects = 16, 100, 50
	w := NewWorker("w1", "w1", "coord", cluster.NewInProc(),
		Options{CellSize: 50, Retention: 10 * time.Minute, SealHorizon: 2 * time.Minute})
	if _, err := w.onAssign(&wire.AssignCameras{Epoch: 1, Cameras: gridCams(world1, 8)}); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var feats []vision.Feature
	if featured {
		for i := 0; i < objects; i++ {
			feats = append(feats, vision.NewRandomFeature(rng, 32))
		}
	}
	f := &ingestFixture{w: w}
	for b := 0; b < ring; b++ {
		obs := make([]wire.Observation, perBatch)
		for i := range obs {
			obs[i] = wire.Observation{
				Camera: uint32(1 + rng.Intn(64)),
				Pos:    geo.Pt(rng.Float64()*world1.Width(), rng.Float64()*world1.Height()),
			}
			if featured {
				obs[i].Feature = feats[rng.Intn(objects)]
			}
		}
		f.ring = append(f.ring, &wire.IngestBatch{Source: "fixture", Observations: obs})
	}
	return f
}

// ingest restamps the next n batches of the ring and applies them.
func (f *ingestFixture) ingest(tb testing.TB, n int) {
	for k := 0; k < n; k++ {
		f.seq++
		m := f.ring[f.seq%uint64(len(f.ring))]
		m.Seq = f.seq
		m.FrameTime = simT0.Add(time.Duration(f.seq) * time.Second)
		for i := range m.Observations {
			f.obsID++
			m.Observations[i].ObsID = f.obsID
			m.Observations[i].Time = m.FrameTime.Add(time.Duration(i) * time.Millisecond)
		}
		resp, err := f.w.onIngest(context.Background(), m)
		if err != nil {
			tb.Fatal(err)
		}
		if ack := resp.(*wire.IngestAck); ack.Accepted != len(m.Observations) {
			tb.Fatalf("ack %+v, want all %d accepted", ack, len(m.Observations))
		}
	}
}

// TestWorkerIngestBytesPerRecord bounds the bytes the worker allocates per
// record of a featureless sequenced batch at the retention bound, where
// every batch inserts, seals, trims and expires as at steady state.
func TestWorkerIngestBytesPerRecord(t *testing.T) {
	const batches, ceiling = 300, 130.0 // ceiling: bytes per record
	f := newIngestFixture(t, false)
	f.ingest(t, 11*60) // past retention: seals and expiry are live
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.ingest(t, batches)
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(batches*len(f.ring[0].Observations))
	t.Logf("%.0f bytes allocated per record", perRecord)
	if perRecord > ceiling {
		t.Fatalf("onIngest allocates %.0f bytes per featureless record, want ≤ %.0f", perRecord, ceiling)
	}
}

// BenchmarkWorkerIngest prices one 100-row sequenced batch through onIngest
// (stage 1 and stage 2) at the retention bound, featureless and with 32-d
// features; run with -benchmem for bytes and allocations per batch.
func BenchmarkWorkerIngest(b *testing.B) {
	for _, bc := range []struct {
		name     string
		featured bool
	}{{"featureless", false}, {"featured", true}} {
		b.Run(bc.name, func(b *testing.B) {
			f := newIngestFixture(b, bc.featured)
			f.ingest(b, 11*60)
			b.ReportAllocs()
			b.ResetTimer()
			f.ingest(b, b.N)
		})
	}
}

// ackTransport acknowledges every ingest batch at once, accepting all of
// it, so a test prices the Ingester's side of delivery alone.
type ackTransport struct{}

func (ackTransport) Serve(string, cluster.Handler) (cluster.Server, error) {
	return nil, cluster.ErrUnreachable
}

func (ackTransport) Call(_ context.Context, _ string, req any) (any, error) {
	return &wire.IngestAck{Accepted: len(req.(*wire.IngestBatch).Observations)}, nil
}

func (ackTransport) Stats() cluster.TransportStats { return cluster.TransportStats{} }
func (ackTransport) Close() error                  { return nil }

// newIngesterFrameFixture returns an Ingester routing over a 4-worker
// cluster's table (16 cameras) but delivering to ackTransport, and one
// 800-detection frame spread over the cameras, to be replayed.
func newIngesterFrameFixture(tb testing.TB) (*Ingester, []vision.Detection) {
	tb.Helper()
	c := newTestCluster(tb, 4, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 4), 50); err != nil {
		tb.Fatal(err)
	}
	ing := NewIngester(c.Coordinator, ackTransport{})
	tb.Cleanup(ing.Close)
	rng := rand.New(rand.NewSource(3))
	frame := make([]vision.Detection, 800)
	for i := range frame {
		frame[i] = vision.Detection{
			ObsID:  uint64(i + 1),
			Camera: camera.ID(1 + rng.Intn(16)),
			Time:   simT0.Add(time.Duration(i) * time.Millisecond),
			Pos:    geo.Pt(rng.Float64()*world1.Width(), rng.Float64()*world1.Height()),
		}
	}
	return ing, frame
}

// ingestFrame delivers frame through ing and checks every detection was
// acknowledged.
func ingestFrame(tb testing.TB, ing *Ingester, frame []vision.Detection) {
	if n, err := ing.IngestDetections(ctx, frame); err != nil || n != len(frame) {
		tb.Fatalf("IngestDetections = %d, %v; want %d accepted", n, err, len(frame))
	}
}

// TestIngesterBytesPerDetection bounds the bytes the Ingester allocates per
// detection to coalesce, sort and deliver a frame, past the frames that
// grow its reusable groups.
func TestIngesterBytesPerDetection(t *testing.T) {
	const frames, ceiling = 200, 24.0 // ceiling: bytes per detection
	ing, frame := newIngesterFrameFixture(t)
	for i := 0; i < 20; i++ {
		ingestFrame(t, ing, frame)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		ingestFrame(t, ing, frame)
	}
	runtime.ReadMemStats(&after)
	perDet := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames*len(frame))
	t.Logf("%.1f bytes allocated per detection", perDet)
	if perDet > ceiling {
		t.Fatalf("the Ingester allocates %.1f bytes per detection, want ≤ %.0f", perDet, ceiling)
	}
}

// BenchmarkIngesterFrame prices coalescing, sorting and delivering one
// 800-detection frame over a 4-worker route table to a transport that acks
// at once; run with -benchmem for bytes and allocations per frame.
func BenchmarkIngesterFrame(b *testing.B) {
	ing, frame := newIngesterFrameFixture(b)
	ingestFrame(b, ing, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingestFrame(b, ing, frame)
	}
}
