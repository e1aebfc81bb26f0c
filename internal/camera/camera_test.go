package camera

import (
	"math"
	"testing"

	"stcam/internal/geo"
)

func TestCameraSees(t *testing.T) {
	// Camera at origin facing +x, 45° half-FOV, 100 m range.
	c := New(1, geo.Pt(0, 0), 0, math.Pi/4, 100)
	tests := []struct {
		name string
		p    geo.Point
		want bool
	}{
		{"on-axis", geo.Pt(50, 0), true},
		{"at-apex", geo.Pt(0, 0), true},
		{"at-range", geo.Pt(100, 0), true},
		{"beyond-range", geo.Pt(101, 0), false},
		{"within-angle", geo.Pt(50, 40), true},   // atan(40/50) ≈ 38.7° < 45°
		{"outside-angle", geo.Pt(50, 60), false}, // atan(60/50) ≈ 50.2° > 45°
		{"behind", geo.Pt(-10, 0), false},
		{"edge-angle", geo.Pt(50, 50), true}, // exactly 45°
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Sees(tt.p); got != tt.want {
				t.Errorf("Sees(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestCameraSeesWrapAround(t *testing.T) {
	// Facing -x (pi); the FOV straddles the angle wrap at ±pi.
	c := New(1, geo.Pt(0, 0), math.Pi, math.Pi/4, 100)
	if !c.Sees(geo.Pt(-50, 5)) || !c.Sees(geo.Pt(-50, -5)) {
		t.Error("wrap-around FOV broken")
	}
	if c.Sees(geo.Pt(50, 0)) {
		t.Error("sees behind itself")
	}
}

func TestOmnidirectionalCamera(t *testing.T) {
	c := New(1, geo.Pt(0, 0), 0, math.Pi, 50)
	for _, p := range []geo.Point{{X: 30, Y: 0}, {X: -30, Y: 0}, {X: 0, Y: 30}, {X: 0, Y: -30}} {
		if !c.Sees(p) {
			t.Errorf("omni camera misses %v", p)
		}
	}
	if c.Sees(geo.Pt(51, 0)) {
		t.Error("omni camera sees beyond range")
	}
	if b := c.Bounds(); math.Abs(b.Width()-100) > 2 || math.Abs(b.Height()-100) > 2 {
		t.Errorf("omni FOV bounds = %v, want the range circle's 100 m box", b)
	}
}

func TestNewCameraPanics(t *testing.T) {
	for _, tc := range []struct {
		halfFOV, rng float64
	}{{0, 100}, {-1, 100}, {math.Pi + 0.1, 100}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(halfFOV=%v, range=%v) did not panic", tc.halfFOV, tc.rng)
				}
			}()
			New(1, geo.Pt(0, 0), 0, tc.halfFOV, tc.rng)
		}()
	}
}

func TestCameraOverlaps(t *testing.T) {
	a := New(1, geo.Pt(0, 0), 0, math.Pi/4, 100)
	b := New(2, geo.Pt(50, 0), math.Pi, math.Pi/4, 100) // facing back at a
	if !a.Overlaps(b) {
		t.Error("facing cameras should overlap")
	}
	c := New(3, geo.Pt(0, 1000), 0, math.Pi/4, 100)
	if a.Overlaps(c) {
		t.Error("distant cameras should not overlap")
	}
	d := New(4, geo.Pt(-50, 0), math.Pi, math.Pi/4, 100) // back to back with a
	if a.Overlaps(d) {
		t.Error("back-to-back cameras should not overlap")
	}
}

func TestNetworkAddRemove(t *testing.T) {
	n := NewNetwork()
	n.Add(New(1, geo.Pt(0, 0), 0, 1, 10))
	n.Add(New(2, geo.Pt(5, 0), math.Pi, 1, 10))
	if len(n.IDs()) != 2 {
		t.Fatalf("%d cameras, want 2", len(n.IDs()))
	}
	if _, ok := n.Camera(1); !ok {
		t.Fatal("camera 1 missing")
	}
	if _, ok := n.Camera(9); ok {
		t.Fatal("phantom camera 9")
	}
	ids := n.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("IDs = %v", ids)
	}
	// Re-adding an ID replaces the camera in place.
	n.Add(New(1, geo.Pt(9, 0), 0, 1, 10))
	if c, _ := n.Camera(1); c.Pos != geo.Pt(9, 0) || len(n.IDs()) != 2 {
		t.Fatalf("re-add: camera 1 at %v, %d cameras", c.Pos, len(n.IDs()))
	}
}

// edge returns the stats for the directed edge from → to.
func edge(n *Network, from, to ID) (EdgeStats, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.adj[from][to]
	if !ok {
		return EdgeStats{}, false
	}
	return *e, true
}

func TestSeedGeometricEdges(t *testing.T) {
	n := NewNetwork()
	// Three cameras in a row; 1↔2 overlap, 3 is isolated.
	n.Add(New(1, geo.Pt(0, 0), 0, math.Pi/4, 100))
	n.Add(New(2, geo.Pt(80, 0), math.Pi, math.Pi/4, 100))
	n.Add(New(3, geo.Pt(5000, 0), 0, math.Pi/4, 100))
	added := n.SeedGeometricEdges(0)
	if added != 2 {
		t.Errorf("added %d edges, want 2 (bidirectional pair)", added)
	}
	if got := n.Neighbors(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if got := n.Neighbors(3); len(got) != 0 {
		t.Errorf("Neighbors(3) = %v", got)
	}
	// Re-seeding must be idempotent.
	if added := n.SeedGeometricEdges(0); added != 0 {
		t.Errorf("re-seed added %d edges", added)
	}
}

func TestSeedGeometricEdgesWithGap(t *testing.T) {
	n := NewNetwork()
	// Two cameras whose FOVs end ~20 m apart.
	n.Add(New(1, geo.Pt(0, 0), 0, math.Pi/4, 50))         // covers x ∈ [0, 50]
	n.Add(New(2, geo.Pt(120, 0), math.Pi, math.Pi/4, 50)) // covers x ∈ [70, 120]
	if added := n.SeedGeometricEdges(0); added != 0 {
		t.Fatalf("disjoint FOVs linked without gap tolerance (%d edges)", added)
	}
	if added := n.SeedGeometricEdges(30); added != 2 {
		t.Errorf("gap-tolerant seeding added %d edges, want 2", added)
	}
}

func TestObserveTransitLearnsEdges(t *testing.T) {
	n := NewNetwork()
	n.Add(New(1, geo.Pt(0, 0), 0, 1, 10))
	n.Add(New(2, geo.Pt(1000, 0), 0, 1, 10))
	if err := n.ObserveTransit(1, 2, 12); err != nil {
		t.Fatal(err)
	}
	if err := n.ObserveTransit(1, 2, 18); err != nil {
		t.Fatal(err)
	}
	e, ok := edge(n, 1, 2)
	if !ok {
		t.Fatal("edge not learned")
	}
	if e.Count != 2 {
		t.Errorf("Count = %d", e.Count)
	}
	if math.Abs(e.MeanTransitS-15) > 1e-9 {
		t.Errorf("MeanTransitS = %v, want 15", e.MeanTransitS)
	}
	if e.Geometric {
		t.Error("learned edge marked geometric")
	}
	// Transit to an unknown camera is an error.
	if err := n.ObserveTransit(1, 99, 5); err == nil {
		t.Error("transit to unknown camera accepted")
	}
	if err := n.ObserveTransit(99, 1, 5); err == nil {
		t.Error("transit from unknown camera accepted")
	}
	// Self-transit is a no-op.
	if err := n.ObserveTransit(1, 1, 5); err != nil {
		t.Errorf("self transit errored: %v", err)
	}
	if _, ok := edge(n, 1, 1); ok {
		t.Error("self edge created")
	}
}

func TestCamerasCoveringAndIntersecting(t *testing.T) {
	n := NewNetwork()
	n.Add(New(1, geo.Pt(0, 0), 0, math.Pi/4, 100))
	n.Add(New(2, geo.Pt(200, 0), math.Pi, math.Pi/4, 100))
	p := geo.Pt(50, 0)
	if got := n.CamerasCovering(p); len(got) != 1 || got[0] != 1 {
		t.Errorf("CamerasCovering(%v) = %v", p, got)
	}
	r := geo.RectOf(90, -10, 160, 10) // straddles both FOV tips
	got := n.CamerasIntersecting(r)
	if len(got) != 2 {
		t.Errorf("CamerasIntersecting = %v, want both", got)
	}
	far := geo.RectOf(1000, 1000, 1100, 1100)
	if got := n.CamerasIntersecting(far); len(got) != 0 {
		t.Errorf("CamerasIntersecting(far) = %v", got)
	}
}

func TestGridLayout(t *testing.T) {
	cfg := LayoutConfig{World: geo.RectOf(0, 0, 1000, 1000), Seed: 1}
	n := GridLayout(cfg, 4, 5)
	if len(n.IDs()) != 20 {
		t.Fatalf("%d cameras, want 20", len(n.IDs()))
	}
	// Deterministic under the same seed.
	n2 := GridLayout(cfg, 4, 5)
	for _, id := range n.IDs() {
		a, _ := n.Camera(id)
		b, _ := n2.Camera(id)
		if a.Pos != b.Pos || a.Orient != b.Orient {
			t.Fatalf("layout not deterministic at camera %d", id)
		}
	}
	// All cameras inside the world.
	for _, c := range n.All() {
		if !cfg.World.Contains(c.Pos) {
			t.Errorf("camera %d at %v outside world", c.ID, c.Pos)
		}
	}
	// A seeded grid should produce a connected-ish graph with modest degree.
	n.SeedGeometricEdges(100)
	if n.EdgeCount() == 0 {
		t.Error("grid layout produced no vision-graph edges")
	}
	if d := n.AvgDegree(); d > 12 {
		t.Errorf("grid layout avg degree %v is suspiciously dense", d)
	}
}

func TestCorridorLayout(t *testing.T) {
	cfg := LayoutConfig{World: geo.RectOf(0, 0, 1000, 100), Seed: 2}
	n := CorridorLayout(cfg, 10)
	if len(n.IDs()) != 10 {
		t.Fatalf("%d cameras, want 10", len(n.IDs()))
	}
	n.SeedGeometricEdges(40)
	// Chain topology: average degree should be around 2, far below N-1.
	if d := n.AvgDegree(); d < 0.5 || d > 4.5 {
		t.Errorf("corridor avg degree = %v, want ≈ 2", d)
	}
}
