// Command stcamctl queries a running stcam coordinator.
//
//	stcamctl -coordinator host:7600 range -rect 0,0,500,500 -last 10m
//	stcamctl -coordinator host:7600 knn -at 120,300 -k 5 -last 1h
//	stcamctl -coordinator host:7600 count -rect 0,0,500,500 -last 10m
//	stcamctl -coordinator host:7600 trajectory -target 81604378625 -last 1h
//	stcamctl -coordinator host:7600 heatmap -rect 0,0,1000,1000 -cell 100 -last 10m
//	stcamctl -coordinator host:7600 top
//	stcamctl -coordinator host:7600 stats
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"stcam"
	"stcam/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stcamctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("stcamctl", flag.ContinueOnError)
	coordAddr := global.String("coordinator", "127.0.0.1:7600", "coordinator address")
	timeout := global.Duration("timeout", 10*time.Second, "RPC timeout")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: stcamctl [-coordinator addr] <range|knn|count|trajectory|heatmap|stats|top> [flags]")
	}
	cmd, cmdArgs := rest[0], rest[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	rectStr := fs.String("rect", "", "query rectangle x0,y0,x1,y1")
	atStr := fs.String("at", "", "query point x,y (knn)")
	k := fs.Int("k", 5, "neighbor count (knn)")
	target := fs.Uint64("target", 0, "target id (trajectory)")
	last := fs.Duration("last", time.Hour, "look-back window ending now")
	limit := fs.Int("limit", 0, "max results (0 = unlimited)")
	cell := fs.Float64("cell", 100, "heatmap cell size, meters")
	if err := fs.Parse(cmdArgs); err != nil {
		return err
	}

	now := time.Now().UTC()
	window := wire.TimeWindow{From: now.Add(-*last), To: now}
	transport := stcam.NewTCP()
	defer transport.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd {
	case "range":
		rect, err := parseRect(*rectStr)
		if err != nil {
			return err
		}
		resp, err := transport.Call(ctx, *coordAddr, &wire.RangeQuery{QueryID: 1, Rect: rect, Window: window, Limit: *limit})
		if err != nil {
			return err
		}
		rr, ok := resp.(*wire.RangeResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		printRecords(rr.Records)
		if rr.Truncated {
			fmt.Printf("truncated at -limit %d; more records match\n", *limit)
		}
		return nil

	case "knn":
		p, err := parsePoint(*atStr)
		if err != nil {
			return err
		}
		resp, err := transport.Call(ctx, *coordAddr, &wire.KNNQuery{QueryID: 1, Center: p, Window: window, K: *k})
		if err != nil {
			return err
		}
		kr, ok := resp.(*wire.KNNResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		for _, r := range kr.Records {
			fmt.Printf("obs=%d target=%d camera=%d pos=%s t=%s dist=%.1fm\n",
				r.ObsID, r.TargetID, r.Camera, r.Pos, r.Time.Format(time.RFC3339), distOf(r))
		}
		return nil

	case "count":
		rect, err := parseRect(*rectStr)
		if err != nil {
			return err
		}
		resp, err := transport.Call(ctx, *coordAddr, &wire.CountQuery{QueryID: 1, Rect: rect, Window: window})
		if err != nil {
			return err
		}
		cr, ok := resp.(*wire.CountResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		fmt.Println(cr.Count)
		return nil

	case "trajectory":
		if *target == 0 {
			return fmt.Errorf("trajectory requires -target")
		}
		resp, err := transport.Call(ctx, *coordAddr, &wire.TrajectoryQuery{QueryID: 1, TargetID: *target, Window: window})
		if err != nil {
			return err
		}
		tr, ok := resp.(*wire.TrajectoryResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		printRecords(tr.Records)
		return nil

	case "heatmap":
		rect, err := parseRect(*rectStr)
		if err != nil {
			return err
		}
		resp, err := transport.Call(ctx, *coordAddr, &wire.HeatmapQuery{QueryID: 1, Rect: rect, Window: window, CellSize: *cell})
		if err != nil {
			return err
		}
		hr, ok := resp.(*wire.HeatmapResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		for _, hc := range hr.Cells {
			fmt.Printf("cell (%g, %g)-(%g, %g): %d\n",
				float64(hc.CX)**cell, float64(hc.CY)**cell,
				float64(hc.CX+1)**cell, float64(hc.CY+1)**cell, hc.Count)
		}
		fmt.Printf("%d non-empty cell(s)\n", len(hr.Cells))
		return nil

	case "top", "stats":
		resp, err := transport.Call(ctx, *coordAddr, &wire.ClusterStatsQuery{})
		if err != nil {
			return err
		}
		cs, ok := resp.(*wire.ClusterStatsResult)
		if !ok {
			return fmt.Errorf("unexpected response %T", resp)
		}
		if cmd == "top" {
			renderTop(os.Stdout, cs)
		} else {
			renderStats(os.Stdout, cs)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// renderTop writes the per-worker summary table: one row per registered
// member, live or not, with the scraped ingest/tracking/RPC figures.
func renderTop(out io.Writer, cs *wire.ClusterStatsResult) {
	// A member polled before its first heartbeat (or a group mid-election)
	// reports empty role/leader fields; default them rather than rendering
	// blank cells.
	leader, leaderAddr := cs.Leader, cs.LeaderAddr
	if leader == "" {
		leader = "-"
	}
	if leaderAddr == "" {
		leaderAddr = "-"
	}
	switch cs.Role {
	case "", "single":
		fmt.Fprintf(out, "epoch %d, %d worker(s)\n", cs.Epoch, len(cs.Workers))
	case "leader":
		fmt.Fprintf(out, "epoch %d, leader %s, %d worker(s)\n", cs.Epoch, cs.Leader, len(cs.Workers))
	default:
		fmt.Fprintf(out, "epoch %d, %s (leader %s @ %s), %d worker(s)\n",
			cs.Epoch, cs.Role, leader, leaderAddr, len(cs.Workers))
	}
	if line := servingSummary(&cs.Coordinator); line != "" {
		fmt.Fprintln(out, line)
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tALIVE\tCAMS\tRATE\tACCEPTED\tTRACKS\tRECORDS\tRPCERR\tRETRY\tBRK")
	for _, w := range cs.Workers {
		if !w.Scraped {
			fmt.Fprintf(tw, "%s\t%v\t%d\t%.1f/s\t-\t-\t%d\t-\t-\t-\n",
				w.Node, w.Alive, w.Cameras, w.Load, w.Stored)
			continue
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%.1f/s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			w.Node, w.Alive, w.Cameras, w.Load,
			w.Stats.Counters["ingest.accepted"],
			w.Stats.Gauges["tracks.resident"],
			w.Stored,
			w.Stats.Gauges["rpc.errors"],
			w.Stats.Counters["rpc.retries"],
			w.Stats.Counters["rpc.breaker_opens"])
	}
	tw.Flush() //nolint:errcheck // terminal output
}

// servingSummary condenses the coordinator's serve.* metrics into one line,
// or returns "" when no serving plane has reported (keeping plain clusters'
// output unchanged).
func servingSummary(co *wire.StatsResult) string {
	present := false
	for n := range co.Counters {
		if strings.HasPrefix(n, "serve.") {
			present = true
			break
		}
	}
	if !present {
		for n := range co.Gauges {
			if strings.HasPrefix(n, "serve.") {
				present = true
				break
			}
		}
	}
	if !present {
		return ""
	}
	shed := co.Counters["serve.shed.background"] + co.Counters["serve.shed.interactive"] +
		co.Counters["serve.shed.control"] + co.Counters["serve.shed.none"]
	return fmt.Sprintf("serving: cache %d/%d hit/miss (%dB), subs %d, shed %d, quota denied %d",
		co.Counters["serve.cache.hits"], co.Counters["serve.cache.misses"],
		co.Gauges["serve.cache.bytes"], co.Gauges["serve.subscribers"],
		shed, co.Counters["serve.quota.denied"])
}

// renderStats dumps every scraped metric, coordinator first, then each
// worker: counters and gauges as name=value lines, histograms as
// count/p50/p95/p99.
func renderStats(out io.Writer, cs *wire.ClusterStatsResult) {
	renderNodeStats(out, &cs.Coordinator)
	for i := range cs.Workers {
		w := &cs.Workers[i]
		if !w.Scraped {
			fmt.Fprintf(out, "\n[%s] not scraped (alive=%v)\n", w.Node, w.Alive)
			continue
		}
		fmt.Fprintln(out)
		renderNodeStats(out, &w.Stats)
	}
}

func renderNodeStats(out io.Writer, s *wire.StatsResult) {
	fmt.Fprintf(out, "[%s]\n", s.Node)
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			fmt.Fprintf(out, "  %s = %d\n", n, v)
		} else {
			fmt.Fprintf(out, "  %s = %d\n", n, s.Gauges[n])
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(out, "  %s: count=%d p50=%v p95=%v p99=%v\n",
			n, h.Count, time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99))
	}
}

func distOf(r wire.KNNRecord) float64 { return math.Sqrt(r.Dist2) }

func printRecords(recs []wire.ResultRecord) {
	for _, r := range recs {
		fmt.Printf("obs=%d target=%d camera=%d pos=%s t=%s\n",
			r.ObsID, r.TargetID, r.Camera, r.Pos, r.Time.Format(time.RFC3339))
	}
	fmt.Printf("%d record(s)\n", len(recs))
}

func parseRect(s string) (stcam.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return stcam.Rect{}, fmt.Errorf("rect must be x0,y0,x1,y1 (got %q)", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return stcam.Rect{}, fmt.Errorf("rect component %q: %w", p, err)
		}
		vals[i] = v
	}
	return stcam.RectOf(vals[0], vals[1], vals[2], vals[3]), nil
}

func parsePoint(s string) (stcam.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return stcam.Point{}, fmt.Errorf("point must be x,y (got %q)", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return stcam.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return stcam.Point{}, err
	}
	return stcam.Pt(x, y), nil
}
