package bench

import (
	"math"
	"strings"
	"testing"
)

func gateDoc(r15Speedups, r16Asked []string) *BenchDoc {
	r15 := &Table{ID: "R15", Header: []string{"workers", "batch", "depth", "serial", "pipelined", "speedup"}}
	for _, s := range r15Speedups {
		r15.Rows = append(r15.Rows, []string{"1", "64", "4", "1000", "2000", s})
	}
	r16 := &Table{ID: "R16", Header: []string{"workers", "engine", "asked/knn", "pruned/knn", "asked/range", "KB/query", "knn lat", "range lat"}}
	for i, a := range r16Asked {
		engine := "broadcast"
		if i%2 == 1 {
			engine = "pruned"
		}
		r16.Rows = append(r16.Rows, []string{"4", engine, a, "2.0", "0.5", "1.2", "1ms", "1ms"})
	}
	return &BenchDoc{Scale: 1, Tables: []*Table{r15, r16}}
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := gateDoc([]string{"2.92x", "5.10x"}, []string{"4.0", "2.5"})
	cur := gateDoc([]string{"2.92x", "5.10x"}, []string{"4.0", "2.5"})
	r := Compare(base, cur, DefaultGate())
	if r.Failed() {
		t.Fatalf("identical docs failed the gate:\n%s", r)
	}
	if len(r.Deltas) == 0 {
		t.Fatal("no deltas compared")
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := gateDoc([]string{"2.92x"}, []string{"4.0"})
	// Speedup is floor-gated, so even a big upward swing passes; the R16
	// count drifts +12.5%, inside ±25%.
	cur := gateDoc([]string{"9.40x"}, []string{"4.5"})
	if r := Compare(base, cur, DefaultGate()); r.Failed() {
		t.Fatalf("in-tolerance drift failed the gate:\n%s", r)
	}
}

// A broken ingest pipeline collapses the R15 speedup toward 1×, under the
// absolute floor the gate holds it to.
func TestCompareRegressionFails(t *testing.T) {
	base := gateDoc([]string{"2.92x"}, []string{"4.0"})
	cur := gateDoc([]string{"1.10x"}, []string{"4.0"})
	r := Compare(base, cur, DefaultGate())
	if !r.Failed() {
		t.Fatal("speedup below the 2x floor passed the gate")
	}
	var failed *Delta
	for i := range r.Deltas {
		if r.Deltas[i].Fail {
			failed = &r.Deltas[i]
		}
	}
	if failed == nil || failed.Table != "R15" || failed.Col != "speedup" {
		t.Fatalf("wrong failing delta: %+v", failed)
	}
}

// A pruning regression shows up as the pruned engine's asked count jumping
// toward broadcast levels — the exact deterministic signal the gate watches.
func TestComparePruningRegressionFails(t *testing.T) {
	base := gateDoc([]string{"2.92x"}, []string{"4.0", "2.0"})
	cur := gateDoc([]string{"2.92x"}, []string{"4.0", "4.0"}) // pruned asked doubled
	if r := Compare(base, cur, DefaultGate()); !r.Failed() {
		t.Fatal("pruned asked/knn doubling passed the gate")
	}
}

func TestCompareMissingTableFails(t *testing.T) {
	base := gateDoc([]string{"2.92x"}, []string{"4.0"})
	cur := &BenchDoc{Scale: 1, Tables: []*Table{base.Tables[0]}} // no R16
	r := Compare(base, cur, DefaultGate())
	if !r.Failed() {
		t.Fatal("missing R16 table passed the gate")
	}
	if len(r.Missing) == 0 {
		t.Fatal("missing table not reported")
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	base := gateDoc([]string{"2.92x", "5.10x"}, []string{"4.0"})
	cur := gateDoc([]string{"2.92x"}, []string{"4.0"})
	if r := Compare(base, cur, DefaultGate()); !r.Failed() {
		t.Fatal("truncated current table passed the gate")
	}
}

func TestCompareSkipsNoiseFloor(t *testing.T) {
	// broadcast rows report pruned/knn = 0; a 0→0.1 wiggle must not trip
	// the relative comparison.
	base := gateDoc(nil, []string{"4.0"})
	cur := gateDoc(nil, []string{"4.0"})
	base.Tables[1].Rows[0][3] = "0.0"
	cur.Tables[1].Rows[0][3] = "0.1"
	if r := Compare(base, cur, DefaultGate()); r.Failed() {
		t.Fatalf("noise-floor delta failed the gate:\n%s", r)
	}
}

func TestParseCell(t *testing.T) {
	cases := map[string]float64{
		"2.92x":  2.92,
		" 4.0 ":  4,
		"-1.5":   -1.5,
		"87%":    87,
		"1.2e3x": 1200,
		"1ms":    1, // leading float only; durations are not gated
	}
	for in, want := range cases {
		if got := parseCell(in); got != want {
			t.Errorf("parseCell(%q) = %v, want %v", in, got, want)
		}
	}
	if !math.IsNaN(parseCell("pruned")) {
		t.Error("parseCell of a label did not return NaN")
	}
}

func TestReportMarkdown(t *testing.T) {
	base := gateDoc([]string{"2.92x"}, []string{"4.0"})
	cur := gateDoc([]string{"1.00x"}, []string{"4.0"})
	md := Compare(base, cur, DefaultGate()).Markdown()
	for _, want := range []string{"FAILED", "| R15 |", "speedup", ":x:"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	ok := Compare(base, base, DefaultGate()).Markdown()
	if !strings.Contains(ok, "Status: OK") {
		t.Errorf("passing markdown missing OK status:\n%s", ok)
	}
}

// codecDoc builds an R20 table with the given pooled allocs/op and B/op
// cells (two rows: IngestBatch, RangeResult).
func codecDoc(allocs, bytes []string) *BenchDoc {
	t := &Table{ID: "R20", Header: []string{
		"message", "elems",
		"value ns/op", "value B/op", "value allocs/op",
		"pooled ns/op", "pooled B/op", "pooled allocs/op",
	}}
	names := []string{"IngestBatch", "RangeResult"}
	for i := range allocs {
		t.Rows = append(t.Rows, []string{
			names[i%2], "256", "50000", "90432", "276", "30000", bytes[i], allocs[i],
		})
	}
	return &BenchDoc{Scale: 1, Tables: []*Table{t}}
}

// The pooled codec columns are ceiling-gated: values at or under Max pass
// regardless of how far they drift from the baseline (0 → 2 allocs is a
// +Inf relative move and must still pass).
func TestCompareMaxCeilingPasses(t *testing.T) {
	base := codecDoc([]string{"0", "0"}, []string{"0", "0"})
	cur := codecDoc([]string{"2.000", "1.000"}, []string{"96.0", "48.0"})
	if r := Compare(base, cur, DefaultGate()); r.Failed() {
		t.Fatalf("pooled allocs at the ceiling failed the gate:\n%s", r)
	}
}

// One allocation over the committed ceiling fails, even though the host is
// irrelevant to the count — that is the point of an absolute Max.
func TestCompareMaxCeilingFails(t *testing.T) {
	base := codecDoc([]string{"1.000", "1.000"}, []string{"48.0", "48.0"})
	cur := codecDoc([]string{"1.000", "3.000"}, []string{"48.0", "144"})
	r := Compare(base, cur, DefaultGate())
	if !r.Failed() {
		t.Fatal("pooled allocs over the ceiling passed the gate")
	}
	var failed *Delta
	for i := range r.Deltas {
		if r.Deltas[i].Fail {
			failed = &r.Deltas[i]
		}
	}
	if failed == nil || failed.Table != "R20" || failed.Col != "pooled allocs/op" {
		t.Fatalf("wrong failing delta: %+v", failed)
	}
	if failed.RowKey != "message=RangeResult elems=256" {
		t.Fatalf("failing delta names the wrong row: %q", failed.RowKey)
	}
}

// A hidden copy that stays within the alloc budget but balloons bytes trips
// the loose B/op ceiling.
func TestCompareMaxBytesCeilingFails(t *testing.T) {
	base := codecDoc([]string{"1.000", "1.000"}, []string{"48.0", "48.0"})
	cur := codecDoc([]string{"1.000", "1.000"}, []string{"48.0", "2048"})
	if r := Compare(base, cur, DefaultGate()); !r.Failed() {
		t.Fatal("pooled B/op over the ceiling passed the gate")
	}
}

// assocDoc builds an R23 table with the given speedup× and dense allocs/op
// cells on its gated row.
func assocDoc(speedup, allocs string) *BenchDoc {
	return &BenchDoc{Scale: 1, Tables: []*Table{{
		ID:     "R23",
		Header: []string{"gallery", "dim", "sort µs/op", "dense µs/op", "speedup×", "dense allocs/op"},
		Rows:   [][]string{{"323", "32", "60.0", "8.000", speedup, allocs}},
	}}}
}

// The association gate holds the match path at zero allocations (a stray
// runtime allocation in the measuring window rounds to 0.00x and passes) and
// the dense-vs-sort ratio above its floor.
func TestCompareAssociationGate(t *testing.T) {
	base := assocDoc("7.500", "0")
	for _, c := range []struct {
		speedup, allocs string
		fail            bool
	}{
		{"7.100", "0.002", false},
		{"3.200", "0", false},
		{"7.100", "1.000", true},
		{"1.100", "0", true},
	} {
		if r := Compare(base, assocDoc(c.speedup, c.allocs), DefaultGate()); r.Failed() != c.fail {
			t.Errorf("speedup %s, allocs %s: failed = %v, want %v\n%s", c.speedup, c.allocs, r.Failed(), c.fail, r)
		}
	}
}
