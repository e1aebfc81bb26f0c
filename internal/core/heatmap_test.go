package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"stcam/internal/cluster"
	"stcam/internal/geo"
	"stcam/internal/wire"
)

func TestDistributedHeatmap(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	// Three observations in cell (0,0) at 100 m resolution, two in (5,5),
	// one in (9,9) — spread across different workers.
	obs := []wire.Observation{
		obsAt(1, 1, geo.Pt(10, 10), simT0, nil),
		obsAt(2, 1, geo.Pt(50, 90), simT0.Add(time.Second), nil),
		obsAt(3, 1, geo.Pt(99, 99), simT0.Add(2*time.Second), nil),
		obsAt(4, 5, geo.Pt(510, 520), simT0.Add(3*time.Second), nil),
		obsAt(5, 5, geo.Pt(590, 560), simT0.Add(4*time.Second), nil),
		obsAt(6, 9, geo.Pt(910, 950), simT0.Add(5*time.Second), nil),
	}
	ingestDirect(t, c, obs...)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}

	cells, err := c.Coordinator.Heatmap(ctx, world1, window, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int32]int64{{0, 0}: 3, {5, 5}: 2, {9, 9}: 1}
	if len(cells) != len(want) {
		t.Fatalf("heatmap has %d cells, want %d: %+v", len(cells), len(want), cells)
	}
	var total int64
	for _, hc := range cells {
		if want[[2]int32{hc.CX, hc.CY}] != hc.Count {
			t.Errorf("cell (%d,%d) = %d, want %d", hc.CX, hc.CY, hc.Count, want[[2]int32{hc.CX, hc.CY}])
		}
		total += hc.Count
	}
	if total != 6 {
		t.Errorf("heatmap total = %d", total)
	}
	// Cells arrive sorted by (CY, CX).
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1], cells[i]
		if a.CY > b.CY || (a.CY == b.CY && a.CX >= b.CX) {
			t.Fatal("heatmap cells not sorted")
		}
	}
	// Heatmap total agrees with Count over the same window.
	n, err := c.Coordinator.Count(ctx, world1, window)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != total {
		t.Errorf("count %d != heatmap total %d", n, total)
	}
	// Time filter applies.
	cells, err = c.Coordinator.Heatmap(ctx, world1, wire.TimeWindow{From: simT0.Add(3 * time.Second), To: simT0.Add(time.Hour)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, hc := range cells {
		total += hc.Count
	}
	if total != 3 {
		t.Errorf("time-filtered heatmap total = %d, want 3", total)
	}
	// Bad cell size rejected.
	if _, err := c.Coordinator.Heatmap(ctx, world1, window, 0); err == nil {
		t.Error("zero cell size accepted")
	}
}

// TestHeatmapRejectsNonFiniteCellSize: NaN and ±Inf cell sizes are refused
// by the coordinator, on its wire path and at each worker, as
// CodeBadRequest — never answered with a well-formed but meaningless map.
func TestHeatmapRejectsNonFiniteCellSize(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 2), 50); err != nil {
		t.Fatal(err)
	}
	var obs []wire.Observation
	for i := 0; i < 10; i++ {
		obs = append(obs, obsAt(uint64(i+1), 1, geo.Pt(float64(10+i*90), float64(20+i*80)), simT0.Add(time.Duration(i)*time.Second), nil))
	}
	ingestDirect(t, c, obs...)
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	for _, cs := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if cells, err := c.Coordinator.Heatmap(ctx, world1, window, cs); err == nil {
			t.Errorf("cell size %v: Heatmap = %+v, want an error", cs, cells)
		}
		q := &wire.HeatmapQuery{QueryID: 1, Rect: world1, Window: window, CellSize: cs}
		for _, addr := range []string{"coord", c.Workers[0].Addr()} {
			resp, err := c.Transport.Call(ctx, addr, q)
			var re *cluster.RemoteError
			if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
				t.Errorf("cell size %v at %s: got (%+v, %v), want CodeBadRequest", cs, addr, resp, err)
			}
		}
	}
}

func TestHeatmapWithReplication(t *testing.T) {
	// Replicated copies must not inflate density counts.
	c := newTestCluster(t, 3, Options{Replicas: 1})
	if err := c.Coordinator.AddCameras(ctx, gridCams(world1, 3), 50); err != nil {
		t.Fatal(err)
	}
	ing := NewIngester(c.Coordinator, c.Transport)
	dets := detectionsAtCameras(gridCams(world1, 3))
	if _, err := ing.IngestDetections(ctx, dets); err != nil {
		t.Fatal(err)
	}
	window := wire.TimeWindow{From: simT0, To: simT0.Add(time.Hour)}
	cells, err := c.Coordinator.Heatmap(ctx, world1, window, 500)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, hc := range cells {
		total += hc.Count
	}
	if total != int64(len(dets)) {
		t.Errorf("replicated heatmap total = %d, want %d", total, len(dets))
	}
}
