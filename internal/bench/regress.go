package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the CI perf-regression gate: it compares two stcam-bench
// -json documents (a committed baseline and a fresh run) over a fixed set of
// machine-robust columns. Raw throughput numbers vary with the host, so the
// gate checks dimensionless ratios (R15 speedup) and deterministic work
// counters (R16 asked/pruned worker counts, gathered bytes) — the quantities
// that actually regress when coalescing or pruning breaks, and that stay
// put when the runner is merely slower.

// BenchDoc mirrors the stcam-bench -json output document.
type BenchDoc struct {
	Scale  float64  `json:"scale"`
	Tables []*Table `json:"tables"`
}

// GateColumn names one column of one experiment the regression gate checks.
// With Min or Max set the check is an absolute bound (cur >= Min, cur <= Max)
// independent of the baseline; otherwise it is baseline-relative within Tol.
type GateColumn struct {
	Table string  // experiment ID, e.g. "R16"
	Col   string  // header name, e.g. "asked/knn"
	Tol   float64 // allowed relative deviation (0.25 = ±25%)
	// MinBase skips cells where both sides are below this magnitude:
	// relative deltas on near-zero bases are pure noise.
	MinBase float64
	// Min, when positive, turns the check into an absolute floor. Use for
	// ratios whose exact value is scheduler-noisy but whose collapse is the
	// regression signal.
	Min float64
	// Max, when positive, turns the check into an absolute ceiling
	// (fail when cur > Max). Use for counters with a hard budget — e.g. the
	// codec's pooled allocs/op, which is deterministic per code path and must
	// never exceed the committed ceiling regardless of host speed.
	Max float64
}

// DefaultGate returns the columns CI compares. Covered:
//   - R15 "speedup": pipelined-vs-serial ingest ratio. The raw ratio swings
//     tens of percent run-to-run (the pipelined side is CPU-bound, the serial
//     side latency-bound), so it is gated as a floor on the documented ≥2×
//     claim: a broken pipeline collapses it to ~1×, noise never does.
//   - R16 "asked/knn", "pruned/knn", "asked/range", "KB/query": exact
//     per-query fan-out counts and gathered bytes — fully deterministic, so
//     baseline-relative ±25% catches any pruning regression (asked jumps
//     toward broadcast levels) without flaking.
//   - R17 "retention×", "rollup-only", "sealed B/obs": the tiered-store
//     contract. "sealed B/obs" is deterministic for the fixed stream (encoded
//     bytes and index entries, no timing), so it gets an absolute ceiling,
//     about 1.57× the ~15 B it measures; "retention×" floors the ≥5×
//     fixed-memory retention claim (observed ~13×, and the flat side is a
//     post-GC live-heap measure, so it moves little); "rollup-only"
//     floors at 0.99 the fraction of aligned long-range aggregates answered
//     with zero chunk decodes — any regression in settling whole chunks from
//     their counts drops it to 0.
//     Min/Max only: a relative gate would also be unusable for "rollup-only"
//     deviations since the baseline fraction is exactly 1.0.
//   - R20 "pooled allocs/op", "pooled B/op": allocation ceilings on the
//     pooled codec round trip (IngestBatch and RangeResult rows). Allocs/op
//     is a deterministic property of the code path, so the gate is an
//     absolute Max: any change that reintroduces per-frame garbage on the
//     ingest or gather hot path fails, regardless of runner speed. The B/op
//     ceiling is deliberately loose — it exists to catch a large hidden
//     copy that still fits in few allocations.
//   - R21 "dedup×", "speedup×", "cache hit", "ingest acked", "ingest p99×":
//     the serving-plane contract, gated on the shared row only (the per-sub
//     baseline row carries "-" cells, which parse as NaN and are skipped).
//     "dedup×" (observed 16) and "speedup×" (a message-count ratio under the
//     transport's fixed injected latency, observed well above the floor) are
//     dimensionless and machine-robust; "cache hit" is deterministic for the
//     fixed storm (49/50); "ingest acked" must be exactly 1.0 because ingest
//     never passes admission control; "ingest p99×" ceilings proxied-ingest
//     P99 under a shed query storm at +10% of idle — both sides are measured
//     back-to-back in the same process over the same injected latency, so
//     the ratio stays near 1.0 on any host.
//   - R23 "dense allocs/op", "speedup×": the association kernel's contract.
//     The match path allocates nothing, so the ceiling is "below one half" —
//     zero, with room for a stray runtime allocation landing in the MemStats
//     window (Max 0 would read as "no ceiling"). "speedup×" floors the
//     dense-vs-full-sort ratio at 3× (observed 5–8×): both loops run back to
//     back on the same gallery, so host speed cancels, and reintroducing a
//     per-probe sort or per-row norm recomputation collapses it toward 1×.
func DefaultGate() []GateColumn {
	return []GateColumn{
		{Table: "R15", Col: "speedup", Min: 2.0},
		{Table: "R16", Col: "asked/knn", Tol: 0.25, MinBase: 0.5},
		{Table: "R16", Col: "pruned/knn", Tol: 0.25, MinBase: 0.5},
		{Table: "R16", Col: "asked/range", Tol: 0.25, MinBase: 0.3},
		{Table: "R16", Col: "KB/query", Tol: 0.25, MinBase: 0.1},
		{Table: "R17", Col: "retention×", Min: 5.0},
		{Table: "R17", Col: "rollup-only", Min: 0.99},
		{Table: "R17", Col: "sealed B/obs", Max: 24},
		{Table: "R20", Col: "pooled allocs/op", Max: 2},
		{Table: "R20", Col: "pooled B/op", Max: 512},
		{Table: "R21", Col: "dedup×", Min: 8},
		{Table: "R21", Col: "speedup×", Min: 5},
		{Table: "R21", Col: "cache hit", Min: 0.9},
		{Table: "R21", Col: "ingest acked", Min: 0.999},
		{Table: "R21", Col: "ingest p99×", Max: 1.10},
		{Table: "R23", Col: "dense allocs/op", Max: 0.5},
		{Table: "R23", Col: "speedup×", Min: 3},
	}
}

// Delta is one compared cell.
type Delta struct {
	Table  string
	Col    string
	RowKey string // leading cells of the row, identifying the series point
	Base   float64
	Cur    float64
	Rel    float64 // (cur-base)/base; ±Inf when base is 0 and cur is not
	Fail   bool
}

// Report is the outcome of one gate comparison.
type Report struct {
	Deltas  []Delta
	Missing []string // tables/columns/rows present in the baseline but not in the current run
}

// Failed reports whether any delta exceeded its tolerance or any gated
// baseline data is missing from the current run.
func (r *Report) Failed() bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, d := range r.Deltas {
		if d.Fail {
			return true
		}
	}
	return false
}

// String renders a plain-text summary.
func (r *Report) String() string {
	var b strings.Builder
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "MISSING %s\n", m)
	}
	for _, d := range r.Deltas {
		status := "ok"
		if d.Fail {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-4s %s [%s] %s: base %.3f cur %.3f (%+.1f%%)\n",
			status, d.Table, d.RowKey, d.Col, d.Base, d.Cur, 100*d.Rel)
	}
	return b.String()
}

// Markdown renders the delta table for a CI step summary.
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("### Bench regression gate\n\n")
	if r.Failed() {
		b.WriteString("**Status: FAILED**\n\n")
	} else {
		b.WriteString("Status: OK\n\n")
	}
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "- :x: missing from current run: %s\n", m)
	}
	if len(r.Missing) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("| experiment | row | column | baseline | current | Δ | status |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---|\n")
	for _, d := range r.Deltas {
		status := ":white_check_mark:"
		if d.Fail {
			status = ":x:"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.3f | %.3f | %+.1f%% | %s |\n",
			d.Table, d.RowKey, d.Col, d.Base, d.Cur, 100*d.Rel, status)
	}
	return b.String()
}

// parseCell extracts the leading float from a table cell, tolerating unit
// suffixes like "2.92x" or "87%". Returns NaN for non-numeric cells.
func parseCell(s string) float64 {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) {
		c := s[end]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' {
			end++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func findTable(doc *BenchDoc, id string) *Table {
	for _, t := range doc.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

func findCol(t *Table, name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// rowKey joins the leading non-gated cells that identify a series point
// (e.g. "workers=4 engine=pruned"); two cells are enough for every gated
// table.
func rowKey(t *Table, row []string) string {
	n := min(2, len(t.Header))
	parts := make([]string, 0, n)
	for i := 0; i < n && i < len(row); i++ {
		parts = append(parts, fmt.Sprintf("%s=%s", t.Header[i], row[i]))
	}
	return strings.Join(parts, " ")
}

// Compare checks the current document against the baseline over the gate
// columns. Rows are matched positionally (experiments emit a fixed sweep in
// a fixed order); a current table with fewer rows than the baseline reports
// the missing rows.
func Compare(baseline, current *BenchDoc, gate []GateColumn) *Report {
	r := &Report{}
	for _, g := range gate {
		bt := findTable(baseline, g.Table)
		if bt == nil {
			continue // baseline doesn't cover this experiment yet
		}
		bc := findCol(bt, g.Col)
		if bc < 0 {
			r.Missing = append(r.Missing, fmt.Sprintf("%s column %q (baseline)", g.Table, g.Col))
			continue
		}
		ct := findTable(current, g.Table)
		if ct == nil {
			r.Missing = append(r.Missing, fmt.Sprintf("table %s", g.Table))
			continue
		}
		cc := findCol(ct, g.Col)
		if cc < 0 {
			r.Missing = append(r.Missing, fmt.Sprintf("%s column %q", g.Table, g.Col))
			continue
		}
		for i, brow := range bt.Rows {
			if i >= len(ct.Rows) {
				r.Missing = append(r.Missing, fmt.Sprintf("%s row %d (%s)", g.Table, i, rowKey(bt, brow)))
				continue
			}
			base, cur := parseCell(brow[bc]), parseCell(ct.Rows[i][cc])
			if math.IsNaN(base) || math.IsNaN(cur) {
				continue // non-numeric cell (e.g. a label) — not gated
			}
			if math.Abs(base) < g.MinBase && math.Abs(cur) < g.MinBase {
				continue // both sides in the noise floor
			}
			d := Delta{Table: g.Table, Col: g.Col, RowKey: rowKey(bt, brow), Base: base, Cur: cur}
			if g.Min > 0 || g.Max > 0 {
				if base != 0 {
					d.Rel = (cur - base) / math.Abs(base)
				}
				d.Fail = (g.Min > 0 && cur < g.Min) || (g.Max > 0 && cur > g.Max)
			} else if base == 0 {
				d.Rel = math.Inf(1)
				if cur < 0 {
					d.Rel = math.Inf(-1)
				}
				d.Fail = true
			} else {
				d.Rel = (cur - base) / math.Abs(base)
				d.Fail = math.Abs(d.Rel) > g.Tol
			}
			r.Deltas = append(r.Deltas, d)
		}
	}
	return r
}
