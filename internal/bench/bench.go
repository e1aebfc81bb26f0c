// Package bench implements the reconstructed experiment suite from DESIGN.md
// §3: every R# experiment is a function producing a Table whose rows are the
// series a figure would plot or the rows a table would list. The same
// functions back `go test -bench` (via bench_test.go at the repo root) and
// the `stcam-bench` CLI; EXPERIMENTS.md records representative output.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's result: a header plus formatted rows.
type Table struct {
	ID     string
	Title  string
	Notes  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "   %s\n", t.Notes)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Scale shrinks or grows every experiment's workload. 1.0 is the paper-scale
// default used by stcam-bench; go-test benchmarks pass smaller values to keep
// CI fast. Scales below ~0.05 still run every experiment end to end.
type Scale float64

func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 1 {
		return 1
	}
	return v
}

// Experiment couples an ID to its runner, for the CLI's -exp selector.
type Experiment struct {
	ID   string
	Name string
	Run  func(Scale) *Table
}

// All returns the full experiment suite in ID order.
func All() []Experiment {
	return []Experiment{
		{"R1", "Ingest throughput vs worker count", R1Ingest},
		{"R2", "Query latency vs camera count", R2QueryLatency},
		{"R3", "Handoff cost: vision-graph vs broadcast", R3Handoff},
		{"R4", "Re-identification accuracy", R4Reid},
		{"R5", "Load balance under hotspot skew", R5Balance},
		{"R7", "Continuous query scalability", R7Continuous},
		{"R8", "Worker failure recovery", R8Failover},
		{"R9", "Memory vs retention window", R9Retention},
		{"R10", "Centralized/distributed crossover", R10Crossover},
		{"R12", "Trajectory reconstruction vs detector noise", R12Trajectory},
		{"R13", "Adaptive query planner ablation", R13Planner},
		{"R14", "Query availability under injected faults", R14FaultSweep},
		{"R15", "Pipelined ingest throughput sweep", R15IngestPipeline},
		{"R16", "Pruned scatter-gather vs broadcast fan-out", R16ScatterPruning},
		{"R17", "Tiered track history: sealed-chunk compression and rollup routing", R17TieredStorage},
		{"R20", "Wire codec allocation: value vs pooled round trips", R20CodecAlloc},
		{"R21", "Serving plane: shared fan-out, result cache, admission control", R21Serving},
		{"R23", "Identity association: dense top-1 kernel vs full-sort baseline", R23Association},
	}
}
