package serve

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

// TestSoakServeChurn is the serving-plane churn soak (CI job serve-soak,
// `make soak-serve`): a seeded storm of subscribe/unsubscribe churn, polls,
// ingest, and mid-stream epoch bumps, asserting two invariants throughout:
//
//  1. No leaked installs: after every full drain the coordinator's
//     continuous.active gauge reads zero.
//  2. No stale cache hits across epochs: after every epoch bump, the
//     gateway's cached answer to a Count query equals the coordinator's
//     direct (uncached) answer.
//
// Run under -race this doubles as the concurrency gate on the fan-out and
// cache locking.
func TestSoakServeChurn(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 12
	}
	if v := os.Getenv("STCAM_SOAK_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad STCAM_SOAK_ROUNDS %q: %v", v, err)
		}
		rounds = n
	}
	rng := rand.New(rand.NewSource(41))
	c, _ := newServedCluster(t, 3, 3, Options{CacheTTL: time.Hour, SubscriberBuffer: 8})

	shapes := []geo.Rect{
		geo.RectOf(0, 0, 400, 400),
		geo.RectOf(300, 300, 700, 700),
		geo.RectOf(600, 600, 1000, 1000),
		geo.RectOf(100, 500, 500, 900),
	}
	countQ := &wire.CountQuery{Rect: geo.RectOf(0, 0, 1000, 1000), Window: window}

	type liveSub struct{ id uint64 }
	var live []liveSub
	nextObs := uint64(1)
	grid := 3

	for round := 0; round < rounds; round++ {
		// Subscribe storm: a burst of subscribers over a few shared shapes.
		for i := 0; i < 2+rng.Intn(6); i++ {
			rect := shapes[rng.Intn(len(shapes))]
			ack := gw(t, c, &wire.Subscribe{Kind: wire.ContinuousRange, Rect: rect}).(*wire.SubscribeAck)
			live = append(live, liveSub{id: ack.SubID})
		}
		// The shared table can never hold more installs than shapes.
		if n := gauge(c, "continuous.active"); n > int64(len(shapes)) {
			t.Fatalf("round %d: %d shared installs for %d shapes (dedup broken)", round, n, len(shapes))
		}

		// Ingest a few tracked observations to move the update streams and
		// the query answers.
		for i := 0; i < 3; i++ {
			p := geo.Pt(rng.Float64()*900+50, rng.Float64()*900+50)
			cam := uint32(1 + rng.Intn(grid*grid))
			o := obsAt(nextObs, cam, p, time.Unix(int64(1000+round*10+i), 0).UTC())
			o.Feature = []float32{rng.Float32(), rng.Float32(), rng.Float32()}
			// Route to whichever camera covers the point; the grid is omni so
			// any camera within range accepts. Fall back to skipping
			// rejections — the soak only needs churn, not precision.
			ingest(t, c, o)
			nextObs++
		}

		// Random polls keep some subscribers fast and leave others to lag
		// into eviction.
		for _, s := range live {
			if rng.Intn(3) == 0 {
				resp, err := c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.PollUpdates{SubID: s.id, Max: 8})
				if err != nil {
					continue // already evicted and reported
				}
				_ = resp.(*wire.PollResult)
			}
		}

		// Unsubscribe churn: drop a random subset.
		keep := live[:0]
		for _, s := range live {
			if rng.Intn(3) == 0 {
				c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Unsubscribe{SubID: s.id}) //nolint:errcheck // evicted subs answer unknown-subscriber; that's fine here
			} else {
				keep = append(keep, s)
			}
		}
		live = keep

		// Warm the cache, then every few rounds bump the epoch mid-stream
		// and differential-check the gateway against the coordinator.
		gw(t, c, countQ)
		if round%5 == 4 {
			epoch0 := c.Coordinator.Epoch()
			grid = 2 + (round/5)%2 // alternate layouts so cameras actually move
			if err := c.Coordinator.AddCameras(ctx, gridCams(grid), 50); err != nil {
				t.Fatal(err)
			}
			if c.Coordinator.Epoch() == epoch0 {
				t.Fatalf("round %d: epoch did not bump", round)
			}
			viaGateway := gw(t, c, countQ).(*wire.CountResult)
			direct, _, err := c.Coordinator.CountMeta(ctx, countQ.Rect, countQ.Window)
			if err != nil {
				t.Fatal(err)
			}
			if viaGateway.Count != direct {
				t.Fatalf("round %d: stale cache across epoch bump: gateway %d, direct %d",
					round, viaGateway.Count, direct)
			}
		}
	}

	// Full drain: every remaining subscriber unsubscribes; evicted ones are
	// already released. Nothing may leak.
	for _, s := range live {
		c.Transport.Call(ctx, c.Coordinator.Addr(), &wire.Unsubscribe{SubID: s.id}) //nolint:errcheck // evicted subs answer unknown-subscriber
	}
	deadline := time.Now().Add(10 * time.Second)
	for gauge(c, "continuous.active") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked shared installs after drain: %d", gauge(c, "continuous.active"))
		}
		time.Sleep(time.Millisecond)
	}
	if g := gauge(c, "continuous.active"); g != 0 {
		t.Fatalf("continuous.active = %d after drain, want 0 (leaked install)", g)
	}
}
