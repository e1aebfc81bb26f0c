package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsRunAtTinyScale smoke-runs every experiment end to end at
// a small scale, checking the tables are well-formed. The shape assertions
// live in the dedicated tests below.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tbl := exp.Run(0.05)
			if tbl.ID != exp.ID {
				t.Errorf("table ID = %q, want %q", tbl.ID, exp.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tbl.Header))
				}
			}
			out := tbl.String()
			if !strings.Contains(out, exp.ID) {
				t.Error("rendered table missing experiment ID")
			}
		})
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", 1500.0)
	tbl.AddRow(time.Millisecond, 0.0)
	out := tbl.String()
	if !strings.Contains(out, "== X: demo ==") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "2.500") || !strings.Contains(out, "1500") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, sep, 3 rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestScaleClamps(t *testing.T) {
	if got := Scale(0.001).n(10); got != 1 {
		t.Errorf("tiny scale n = %d, want 1", got)
	}
	if got := Scale(2).n(10); got != 20 {
		t.Errorf("2x scale n = %d, want 20", got)
	}
}

// TestR3ShapeScopedBeatsBroadcast verifies the R3 headline claim at reduced
// scale: scoped handoff sends fewer primes per handoff than broadcast, and
// the broadcast cost grows with network size while scoped stays flat.
func TestR3ShapeScopedBeatsBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	tbl := R3Handoff(0.3)
	type row struct {
		cams             int
		primesPerHandoff float64
	}
	var scoped, broadcast []row
	for _, r := range tbl.Rows {
		cams, _ := strconv.Atoi(r[0])
		per, _ := strconv.ParseFloat(r[4], 64)
		if r[1] == "scoped" {
			scoped = append(scoped, row{cams, per})
		} else {
			broadcast = append(broadcast, row{cams, per})
		}
	}
	if len(scoped) < 2 || len(broadcast) < 2 {
		t.Fatalf("missing rows: %v", tbl.Rows)
	}
	for i := range scoped {
		if scoped[i].primesPerHandoff >= broadcast[i].primesPerHandoff {
			t.Errorf("at %d cameras scoped (%.1f) not cheaper than broadcast (%.1f)",
				scoped[i].cams, scoped[i].primesPerHandoff, broadcast[i].primesPerHandoff)
		}
	}
}

// TestR4ShapeAccuracyDegrades verifies rank-1 accuracy falls with noise and
// with gallery size.
func TestR4ShapeAccuracyDegrades(t *testing.T) {
	tbl := R4Reid(0.5)
	r1 := map[[2]string]float64{}
	for _, r := range tbl.Rows {
		v, _ := strconv.ParseFloat(r[2], 64)
		r1[[2]string{r[0], r[1]}] = v
	}
	if r1[[2]string{"10", "0.050"}] < 0.95 {
		t.Errorf("small gallery low noise rank-1 = %v, want ≈ 1", r1[[2]string{"10", "0.050"}])
	}
	if !(r1[[2]string{"1000", "1.000"}] < r1[[2]string{"1000", "0.050"}]) {
		t.Error("rank-1 did not degrade with noise at gallery 1000")
	}
	if !(r1[[2]string{"1000", "1.000"}] <= r1[[2]string{"10", "1.000"}]) {
		t.Error("rank-1 did not degrade with gallery size at high noise")
	}
}

// TestR16ShapePrunedStaysFlat verifies the pruned-engine headline claims:
// broadcast kNN asks every worker (asked grows linearly with cluster size)
// while the pruned engine's asked column stays near-flat, every worker is
// accounted for (asked + pruned = cluster size), and pruned gathers fewer
// response bytes at the largest size.
func TestR16ShapePrunedStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	tbl := R16ScatterPruning(0.1)
	type row struct {
		workers              int
		asked, pruned, bytes float64
	}
	var broadcast, pruned []row
	for _, r := range tbl.Rows {
		w, _ := strconv.Atoi(r[0])
		asked, _ := strconv.ParseFloat(r[2], 64)
		prn, _ := strconv.ParseFloat(r[3], 64)
		kb, _ := strconv.ParseFloat(r[5], 64)
		if r[1] == "broadcast" {
			broadcast = append(broadcast, row{w, asked, prn, kb})
		} else {
			pruned = append(pruned, row{w, asked, prn, kb})
		}
	}
	if len(broadcast) < 2 || len(pruned) < 2 || len(broadcast) != len(pruned) {
		t.Fatalf("missing rows: %v", tbl.Rows)
	}
	for i := range broadcast {
		if broadcast[i].asked != float64(broadcast[i].workers) {
			t.Errorf("broadcast at %d workers asked %.1f per knn, want every worker",
				broadcast[i].workers, broadcast[i].asked)
		}
		if p := pruned[i]; p.asked+p.pruned != float64(p.workers) {
			t.Errorf("pruned at %d workers: asked %.1f + pruned %.1f does not account for all",
				p.workers, p.asked, p.pruned)
		}
		if pruned[i].asked >= broadcast[i].asked && broadcast[i].workers > 1 {
			t.Errorf("at %d workers pruned asked %.1f, not below broadcast %.1f",
				broadcast[i].workers, pruned[i].asked, broadcast[i].asked)
		}
	}
	first, last := pruned[0], pruned[len(pruned)-1]
	growth := last.asked / first.asked
	clusterGrowth := float64(last.workers) / float64(first.workers)
	if growth > clusterGrowth/2 {
		t.Errorf("pruned asked grew %.1fx across a %.0fx cluster growth; not near-flat",
			growth, clusterGrowth)
	}
	if last.bytes >= broadcast[len(broadcast)-1].bytes {
		t.Errorf("pruned gathered %.2f KB/query at %d workers, broadcast %.2f — no wire saving",
			last.bytes, last.workers, broadcast[len(broadcast)-1].bytes)
	}
}

// TestR17ShapeSealedTierCompresses verifies the tiered-store headline claims
// at reduced scale: most of the stream seals, the sealed tier costs at most
// a fifth of the flat store per observation (the ≥5× retention claim), and
// every seal-granule-aligned long-range aggregate is answered without decoding
// a chunk.
func TestR17ShapeSealedTierCompresses(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	tbl := R17TieredStorage(0.1)
	if len(tbl.Rows) < 2 {
		t.Fatalf("missing rows: %v", tbl.Rows)
	}
	for _, r := range tbl.Rows {
		sealedFrac, _ := strconv.ParseFloat(r[1], 64)
		flatB, _ := strconv.ParseFloat(r[2], 64)
		sealedB, _ := strconv.ParseFloat(r[3], 64)
		retentionX, _ := strconv.ParseFloat(r[4], 64)
		rollupOnly, _ := strconv.ParseFloat(r[5], 64)
		if sealedFrac < 0.5 {
			t.Errorf("events=%s: only %.0f%% of the stream sealed", r[0], 100*sealedFrac)
		}
		if sealedB <= 0 || sealedB > flatB/5 {
			t.Errorf("events=%s: sealed %.1f B/obs vs flat %.1f — under 5x compression", r[0], sealedB, flatB)
		}
		if retentionX < 5 {
			t.Errorf("events=%s: retention× = %.1f, want >= 5", r[0], retentionX)
		}
		if rollupOnly != 1 {
			t.Errorf("events=%s: rollup-only = %.3f, want 1.0 (aggregates decoded chunks)", r[0], rollupOnly)
		}
	}
}

// TestR9ShapeRetentionBounds verifies bounded retention holds fewer records
// than unlimited retention and that the bound scales with the window.
func TestR9ShapeRetentionBounds(t *testing.T) {
	tbl := R9Retention(0.5)
	held := map[string]int{}
	for _, r := range tbl.Rows {
		v, _ := strconv.Atoi(r[2])
		held[r[0]] = v
	}
	if held["30s"] >= held["2m0s"] || held["2m0s"] > held["unlimited"] {
		t.Errorf("retention bounds not monotone: %v", held)
	}
}
