// Command benchmark is stcam's end-to-end benchmark: a coordinator, four
// workers and the serving plane on loopback TCP in one process, driven by
// four fixed traffic mixes, with a traced pass that attributes each
// operation's time to the repository's layers. See README.md beside this
// file for the metric and workload catalogue.
//
//	go run ./benchmark                         # whole suite, human-readable
//	go run ./benchmark -aa                     # suite twice, spread per metric
//	go run ./benchmark -workload query.scan -seed 7 -seconds 10 -trace 1
//
// With -workload the last line of standard output is one JSON object in the
// form BENCHMARK.json describes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	scale   float64 // shrinks the object population and the timed window; 1 = full size
	trace   bool
	setups  int
	outDir  string
	// corrupt makes query.scan damage one answer before the oracle sees it;
	// the tests use it to show the oracle fails a run.
	corrupt bool
}

func (c config) objects() int {
	return max(8, int(float64(baseObjects)*c.scale))
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * c.scale * float64(time.Second))
}

// sample is how many of n traced operations a scaled-down run replays.
func (c config) sample(n int) int {
	if c.scale >= 1 {
		return n
	}
	return max(4, int(float64(n)*c.scale*2))
}

// metric is one reported number. n is the sample count behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// result is everything one run of one workload produced.
type result struct {
	workload  string
	inputHash string
	attempted int
	failed    int
	heapMB    float64
	endToEnd  []metric // the BENCHMARK.json end_to_end metrics
	diags     []metric // named diagnostics, not gated
	layers    []metric // the BENCHMARK.json per_layer metrics (traced runs)
	tables    []layerTable
	counts    map[string]int64 // counts that repeat exactly for one seed
	// fixedLayers holds the per-layer metrics that are set outright — counted
	// across the timed window, or computed by the traced pass — rather than
	// taken as the median of a series of traced samples.
	fixedLayers map[string]metric
	untraced    map[string]time.Duration // untraced concurrent p50 per op kind
	notes       []string
}

func (r *result) e2e(name string, v float64) {
	r.endToEnd = append(r.endToEnd, metric{Name: name, Unit: unitOf(name), Value: v, N: 1})
}

func (r *result) diag(name, unit string, v float64, n int) {
	r.diags = append(r.diags, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) setLayer(name string, v float64, n int) {
	r.fixedLayers[name] = metric{Name: name, Unit: unitOf(name), Value: v, N: n}
}

func (r *result) get(name string) (float64, bool) {
	for _, set := range [][]metric{r.endToEnd, r.diags, r.layers} {
		for _, m := range set {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

// heapInuseMB is the heap in use after a forced collection, in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// liveHeapMB is what the cluster holds: the heap in use now, less what the
// process held right after generating the trace and before booting anything.
func (e *env) liveHeapMB() float64 { return heapInuseMB() - e.tr.base }

// run executes one workload: set up (several times, for a steady setup_s),
// the timed window with tracing off, the output checks, and — when asked —
// the separate traced pass.
func run(w *workload, cfg config) (*result, error) {
	r := &result{workload: w.name, counts: map[string]int64{}, untraced: map[string]time.Duration{}, fixedLayers: map[string]metric{}}
	var e *env
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.stop()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, cfg); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.stop()
	r.inputHash = e.tr.hash
	runtime.GC()

	before := e.counters()
	w.run(e, w, cfg, r)
	r.windowLayers(before, e.counters())
	if r.heapMB == 0 {
		r.heapMB = e.liveHeapMB()
	}
	r.e2e("setup_s", medianF(setupS))
	r.e2e("live_heap_mb", r.heapMB)
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	r.diag("failed_ratio", "ratio", ratio, r.attempted)

	if cfg.trace {
		t, err := w.traced(e, w, cfg, r)
		if t != nil {
			defer t.echo.close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		t.summarize(e, r)
		if cfg.outDir != "" {
			if err := t.write(cfg.outDir, w.name); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// driverLine is the one-line JSON result the benchmark contract asks for.
func driverLine(r *result, traced bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := r.endToEnd
	if traced {
		set = r.layers
	}
	ms := make(map[string]val, len(set))
	for _, m := range set {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings; cannot fail
	}
	return string(out)
}

func printResult(r *result) {
	fmt.Printf("== %s  input_hash=%s  attempted=%d failed=%d\n", r.workload, r.inputHash, r.attempted, r.failed)
	for _, set := range []struct {
		title string
		ms    []metric
	}{{"end-to-end (gated)", r.endToEnd}, {"diagnostics", r.diags}, {"per-layer", r.layers}} {
		if len(set.ms) == 0 {
			continue
		}
		fmt.Printf("  -- %s\n", set.title)
		for _, m := range set.ms {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, t := range r.tables {
		t.print()
	}
	if len(r.counts) > 0 {
		keys := make([]string, 0, len(r.counts))
		for k := range r.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("  -- exact-repeat counts")
		for _, k := range keys {
			fmt.Printf("  %-34s %14d\n", k, r.counts[k])
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  ! %s\n", n)
	}
}

// suite runs every workload once and returns the results in order.
func suite(cfg config) ([]*result, error) {
	var out []*result
	for _, w := range workloads() {
		r, err := run(w, cfg)
		if err != nil {
			return nil, err
		}
		printResult(r)
		out = append(out, r)
	}
	return out, nil
}

// spread compares two suite runs of the same binary and seed: the relative
// difference of every metric, and for the end-to-end ones a verdict against
// the metric's own bound.
func spread(a, b []*result) (ok bool) {
	ok = true
	fmt.Println("== A/A: relative spread per (workload, metric)")
	for i := range a {
		for _, m := range append(append([]metric(nil), a[i].endToEnd...), a[i].diags...) {
			vb, _ := b[i].get(m.Name)
			rel := 0.0
			if lo := math.Min(m.Value, vb); lo > 0 {
				rel = math.Abs(m.Value-vb) / lo
			}
			verdict := ""
			for _, d := range endToEndDefs {
				if d.name != m.Name {
					continue
				}
				verdict = fmt.Sprintf("bound %.2f ok", d.bound)
				if rel > d.bound {
					verdict = fmt.Sprintf("bound %.2f EXCEEDED", d.bound)
					ok = false
				}
			}
			fmt.Printf("  %-13s %-26s %14.4f %14.4f  spread %.3f  %s\n", a[i].workload, m.Name, m.Value, vb, rel, verdict)
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", defaultSeconds, "timed window per workload")
		scale   = flag.Float64("scale", 1, "shrink the object population and the timed window (tests)")
		traceOn = flag.Int("trace", -1, "1: run the traced pass and report per-layer metrics; 0: end-to-end only (default: 1 for the suite)")
		aa      = flag.Bool("aa", false, "run the suite twice and report the spread of every end-to-end metric")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, setups: setupRepeats, outDir: "benchmark/out"}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		cfg.trace = *traceOn == 1
		r, err := run(w, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(r)
		fmt.Println(driverLine(r, cfg.trace))
		return
	}

	cfg.trace = *traceOn != 0
	first, err := suite(cfg)
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, r := range first {
		failed += r.failed
	}
	if *aa {
		second, err := suite(cfg)
		if err != nil {
			fatal(err)
		}
		for _, r := range second {
			failed += r.failed
		}
		if !spread(first, second) {
			failed++
		}
	} else if err := appendTrajectory("benchmark/BENCH_E2E.json", cfg, first); err != nil {
		fatal(err)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d failed checks", failed))
	}
}
