package sim

import (
	"math"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/geo"
	"stcam/internal/vision"
)

func world1km() geo.Rect { return geo.RectOf(0, 0, 1000, 1000) }

func TestNewWorldValidation(t *testing.T) {
	valid := Config{World: world1km(), NumObjects: 1, Model: &Linear{World: world1km()}}
	if _, err := NewWorld(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumObjects: 1, Model: &Linear{}},                     // empty world
		{World: world1km(), NumObjects: -1, Model: &Linear{}}, // negative count
		{World: world1km(), NumObjects: 1},                    // nil model
	}
	for i, cfg := range bad {
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	mk := func() *World {
		w, err := NewWorld(Config{
			World:      world1km(),
			NumObjects: 20,
			Model:      &RandomWaypoint{World: world1km(), MinSpeed: 2, MaxSpeed: 10},
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		a.Step()
		b.Step()
	}
	for i := range a.objects {
		if a.objects[i].Pos != b.objects[i].Pos {
			t.Fatalf("object %d diverged: %v vs %v", i, a.objects[i].Pos, b.objects[i].Pos)
		}
	}
	if !a.Now().Equal(b.Now()) {
		t.Error("clocks diverged")
	}
}

func TestLinearModelExactly(t *testing.T) {
	w, err := NewWorld(Config{
		World:      world1km(),
		NumObjects: 1,
		Model:      &Linear{World: world1km(), Vel: geo.Pt(10, 0)},
		Tick:       time.Second,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := w.objects[0].Pos
	w.Step()
	got := w.objects[0].Pos
	wantX := math.Mod(start.X+10-0, 1000)
	if math.Abs(got.X-wantX) > 1e-9 || got.Y != start.Y {
		t.Errorf("after 1s: %v, want x=%v", got, wantX)
	}
	if w.Now().Sub(DefaultStart) != time.Second {
		t.Errorf("Now = %v", w.Now())
	}
}

func TestObjectsStayInWorldRandomWaypoint(t *testing.T) {
	w, err := NewWorld(Config{
		World:      world1km(),
		NumObjects: 30,
		Model:      &RandomWaypoint{World: world1km(), MinSpeed: 5, MaxSpeed: 30},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := world1km().Expand(1e-6)
	for i := 0; i < 500; i++ {
		w.Step()
		for _, o := range w.objects {
			if !grown.Contains(o.Pos) {
				t.Fatalf("tick %d: object %d escaped to %v", i, o.ID, o.Pos)
			}
		}
	}
}

func TestObjectsStayInWorldRoadGrid(t *testing.T) {
	w, err := NewWorld(Config{
		World:      world1km(),
		NumObjects: 30,
		Model:      &RoadGrid{World: world1km(), Spacing: 100, MinSpeed: 5, MaxSpeed: 15},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := world1km().Expand(1e-6)
	for i := 0; i < 500; i++ {
		w.Step()
		for _, o := range w.objects {
			if !grown.Contains(o.Pos) {
				t.Fatalf("tick %d: object %d escaped to %v", i, o.ID, o.Pos)
			}
		}
	}
}

func TestRoadGridStaysOnRoads(t *testing.T) {
	w, err := NewWorld(Config{
		World:      world1km(),
		NumObjects: 10,
		Model:      &RoadGrid{World: world1km(), Spacing: 100, MinSpeed: 5, MaxSpeed: 15},
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	onRoad := func(p geo.Point) bool {
		const eps = 1e-6
		mx := math.Mod(p.X, 100)
		my := math.Mod(p.Y, 100)
		nearX := mx < eps || 100-mx < eps
		nearY := my < eps || 100-my < eps
		return nearX || nearY
	}
	for i := 0; i < 200; i++ {
		w.Step()
		for _, o := range w.objects {
			if !onRoad(o.Pos) {
				t.Fatalf("tick %d: object %d off-road at %v", i, o.ID, o.Pos)
			}
		}
	}
}

func TestHotspotSkew(t *testing.T) {
	hot := geo.RectOf(0, 0, 200, 200)
	w, err := NewWorld(Config{
		World:      world1km(),
		NumObjects: 200,
		Model: &RandomWaypoint{
			World: world1km(), MinSpeed: 20, MaxSpeed: 40,
			Hotspot: hot, HotspotProb: 0.8,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the population converge toward the hotspot attractor.
	inHot := 0
	samples := 0
	for i := 0; i < 400; i++ {
		w.Step()
		if i < 200 {
			continue
		}
		for _, o := range w.objects {
			samples++
			if hot.Contains(o.Pos) {
				inHot++
			}
		}
	}
	frac := float64(inHot) / float64(samples)
	// Hotspot is 4% of the area; with 80% of waypoints there, occupancy must
	// be far above uniform.
	if frac < 0.2 {
		t.Errorf("hotspot occupancy = %v, want >= 0.2", frac)
	}
}

func TestGroundTruthRecording(t *testing.T) {
	w, err := NewWorld(Config{
		World:       world1km(),
		NumObjects:  3,
		Model:       &Linear{World: world1km(), Vel: geo.Pt(5, 0)},
		RecordTruth: true,
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Step()
	}
	tr := w.Truth(1)
	if tr == nil {
		t.Fatal("no truth for object 1")
	}
	if tr.Len() != 11 { // initial + 10 steps
		t.Errorf("truth has %d samples, want 11", tr.Len())
	}
	if w.Truth(999) != nil {
		t.Error("truth for unknown object")
	}
	// Without RecordTruth, nothing is kept.
	w2, _ := NewWorld(Config{World: world1km(), NumObjects: 1, Model: &Linear{World: world1km()}, Seed: 1})
	w2.Step()
	if w2.Truth(1) != nil {
		t.Error("truth recorded without RecordTruth")
	}
}

func TestObserve(t *testing.T) {
	world := world1km()
	// One omni camera covering everything: every object is observed.
	net := camera.NewNetwork()
	net.Add(camera.New(1, geo.Pt(500, 500), 0, math.Pi, 2000))
	det := vision.NewDetector(vision.DetectorConfig{Seed: 1})
	w, err := NewWorld(Config{World: world, NumObjects: 25, Model: &Linear{World: world, Vel: geo.Pt(1, 0)}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	byCam := w.Observe(net, det)
	if len(byCam[1]) != 25 {
		t.Fatalf("camera 1 saw %d objects, want 25", len(byCam[1]))
	}
	for _, d := range byCam[1] {
		if d.TrueID == 0 || d.Camera != 1 || !d.Time.Equal(w.Now()) {
			t.Fatalf("bad detection %+v", d)
		}
		obj := w.Object(d.TrueID)
		if d.Pos.Dist(obj.Pos) > 1e-9 {
			t.Fatalf("noiseless detection displaced: %v vs %v", d.Pos, obj.Pos)
		}
	}
	// A camera that covers nothing sees nothing.
	net2 := camera.NewNetwork()
	net2.Add(camera.New(2, geo.Pt(-5000, -5000), 0, 0.1, 10))
	if got := w.Observe(net2, det); len(got) != 0 {
		t.Errorf("blind camera produced %v", got)
	}
}

func TestObserveFlatOrdering(t *testing.T) {
	world := world1km()
	net := camera.NewNetwork()
	net.Add(camera.New(2, geo.Pt(250, 500), 0, math.Pi, 600))
	net.Add(camera.New(1, geo.Pt(750, 500), 0, math.Pi, 600))
	det := vision.NewDetector(vision.DetectorConfig{Seed: 2})
	w, err := NewWorld(Config{World: world, NumObjects: 50, Model: &RandomWaypoint{World: world, MinSpeed: 1, MaxSpeed: 5}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w.Step()
	flat := w.ObserveFlat(net, det)
	if len(flat) == 0 {
		t.Fatal("no observations")
	}
	lastCam := camera.ID(0)
	for _, d := range flat {
		if d.Camera < lastCam {
			t.Fatal("flat observations not grouped by ascending camera ID")
		}
		lastCam = d.Camera
	}
}

func TestRunLoop(t *testing.T) {
	world := world1km()
	net := camera.NewNetwork()
	net.Add(camera.New(1, geo.Pt(500, 500), 0, math.Pi, 2000))
	det := vision.NewDetector(vision.DetectorConfig{Seed: 3})
	w, err := NewWorld(Config{World: world, NumObjects: 5, Model: &Linear{World: world, Vel: geo.Pt(2, 0)}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	totalObs := 0
	w.Run(20, net, det, func(tick int, obs []vision.Detection) {
		if tick != ticks {
			t.Fatalf("tick %d out of order", tick)
		}
		ticks++
		totalObs += len(obs)
	})
	if ticks != 20 {
		t.Errorf("ran %d ticks", ticks)
	}
	if totalObs != 100 { // 5 objects × 20 ticks, full coverage, no noise
		t.Errorf("total observations = %d, want 100", totalObs)
	}
}
