package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smoke is a tiny run: a twentieth of the objects and of the timed window.
func smoke(t *testing.T) config {
	t.Helper()
	if testing.Short() {
		t.Skip("boots a TCP cluster per workload; skipped in -short")
	}
	return config{seed: 1, seconds: defaultSeconds, scale: 0.05, trace: true, setups: 1, outDir: t.TempDir()}
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCatalogue holds BENCHMARK.json and the program's own
// metric and workload tables in step.
func TestContractMatchesCatalogue(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", c.RunSeconds, defaultSeconds)
	}
	ws := workloads()
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(what string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", what, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound mismatch or out of (0, 0.25]: %+v vs %v", d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndDefs, true)
	check("per_layer", c.PerLayer, perLayerDefs, false)
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func defNames(ds []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range ds {
		out[d.name] = d.unit
	}
	return out
}

// TestEveryWorkload runs each workload small and checks the shape of what it
// reports: every catalogued metric once, finite and with its unit; every
// span inside its parent with a non-negative self time; every layer table
// summing to its traced median within the printed residual.
func TestEveryWorkload(t *testing.T) {
	cfg := smoke(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			r, err := run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.notes)
			}
			for _, set := range []struct {
				got  []metric
				want []metricDef
				e2e  bool
			}{{r.endToEnd, endToEndDefs, true}, {r.layers, perLayerDefs, false}} {
				want := defNames(set.want)
				seen := map[string]bool{}
				for _, m := range set.got {
					if unit, ok := want[m.Name]; !ok || unit != m.Unit || seen[m.Name] {
						t.Errorf("metric %q (%s) is uncatalogued, mis-united or repeated", m.Name, m.Unit)
					}
					seen[m.Name] = true
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (set.e2e && m.Value <= 0) {
						t.Errorf("metric %q = %v", m.Name, m.Value)
					}
				}
				if len(seen) != len(want) {
					t.Errorf("reported %v, want every one of %d catalogued metrics", names(set.got), len(want))
				}
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(r, false)), &line); err != nil || !line.Correct || len(line.Metrics) != len(endToEndDefs) {
				t.Errorf("driver line %s: %v", driverLine(r, false), err)
			}

			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace."+w.name+".jsonl"))
			if err != nil || len(data) == 0 {
				t.Fatalf("trace file: %v (%d bytes)", err, len(data))
			}
			checkSpans(t, data)
			checkTables(t, r)
		})
	}
}

// checkSpans reads the trace file back: every span inside its parent, no
// negative self time.
func checkSpans(t *testing.T, data []byte) {
	t.Helper()
	var spans []span
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	const eps = 1e-3 // spans are whole nanoseconds written as microseconds
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
		if s.Parent >= 0 {
			if p := spans[s.Parent]; p.Op != s.Op || s.Start < p.Start-eps || s.End > p.End+eps {
				t.Errorf("span %d %s [%v,%v] escapes parent %s [%v,%v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
}

// checkTables: each layer table's rows plus its residual are its traced
// median, and no row is negative.
func checkTables(t *testing.T, r *result) {
	t.Helper()
	if len(r.tables) == 0 {
		t.Fatal("no layer tables")
	}
	for _, tb := range r.tables {
		sum := tb.residual
		for _, row := range tb.rows {
			if row.self < 0 {
				t.Errorf("%s: layer %s has self time %v", tb.kind, row.layer, row.self)
			}
			sum += row.self
		}
		if math.Abs(sum-tb.e2e) > 1e-6*math.Max(1, tb.e2e) {
			t.Errorf("%s: rows + residual = %v, traced median %v", tb.kind, sum, tb.e2e)
		}
	}
}

// TestSpansNest lays a hand-built operation out and checks containment, the
// clipping of an over-long child, and that self times sum to the root.
func TestSpansNest(t *testing.T) {
	root := &node{name: "root", layer: "other", d: 100, kids: []*node{
		{name: "a", layer: "cluster", d: 30, kids: []*node{{name: "a1", layer: "wire", d: 50}}},
		{name: "b", layer: "stindex", d: 90},
	}}
	var spans []span
	flatten(&spans, root, "op", 0, -1, 0)
	total := 0.0
	for _, s := range spans {
		total += s.Self
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
		if s.Parent >= 0 {
			if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Errorf("span %s [%v,%v] escapes parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	if want := us(100); math.Abs(total-want) > 1e-9 {
		t.Errorf("self times sum to %v, root lasts %v", total, want)
	}
}

// TestDeterminism: the same seed gives the same input and the same exact
// counts; another seed gives another input and still runs clean.
func TestDeterminism(t *testing.T) {
	cfg := smoke(t)
	w := workloadByName("query.scan")
	a, err := run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.inputHash != b.inputHash || !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("same seed: input %s vs %s, counts %v vs %v", a.inputHash, b.inputHash, a.counts, b.counts)
	}
	if len(a.counts) == 0 {
		t.Error("no exact-repeat counts recorded")
	}
	for _, name := range []string{"wire.bytes_per_msg", "core.asked_per_query", "core.pruned_per_query"} {
		va, _ := a.get(name)
		vb, _ := b.get(name)
		if va != vb {
			t.Errorf("%s: %v vs %v for one seed", name, va, vb)
		}
	}
	cfg.seed = 2
	c, err := run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 || c.inputHash == a.inputHash {
		t.Errorf("second seed: failed %d (%v), input %s vs %s", c.failed, c.notes, c.inputHash, a.inputHash)
	}
}

// TestOracleFailsACorruptedAnswer damages one answer and expects the run to
// report it: failed > 0, correct false.
func TestOracleFailsACorruptedAnswer(t *testing.T) {
	cfg := smoke(t)
	cfg.trace, cfg.corrupt = false, true
	r, err := run(workloadByName("query.scan"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Fatal("a corrupted range answer passed the oracle")
	}
	var line struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(driverLine(r, false)), &line); err != nil || line.Correct {
		t.Errorf("driver line reports correct for a failed run: %s", driverLine(r, false))
	}
}
