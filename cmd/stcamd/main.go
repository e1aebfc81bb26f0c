// Command stcamd runs one node of an stcam cluster over TCP: either the
// coordinator or a worker.
//
// Coordinator:
//
//	stcamd -role coordinator -addr :7600
//
// Highly-available coordinator group (one leader plus standbys; each member
// names itself and its peers, and standbys boot with -standby):
//
//	stcamd -role coordinator -id c1 -addr host1:7600 -peers c2=host2:7600,c3=host3:7600
//	stcamd -role coordinator -id c2 -addr host2:7600 -peers c1=host1:7600,c3=host3:7600 -standby
//	stcamd -role coordinator -id c3 -addr host3:7600 -peers c1=host1:7600,c2=host2:7600 -standby
//
// Workers (any number, on any machines that can reach the coordinators; give
// them the full candidate list so they fail over on their own):
//
//	stcamd -role worker -id w1 -addr :7601 -coordinator host1:7600,host2:7600,host3:7600
//
// Cameras are registered by a client (cmd/stcam-sim, or any program sending
// an AssignCameras message to the coordinator); queries go through
// cmd/stcamctl.
//
// Either role can additionally expose an observability endpoint with
// -http addr, serving Prometheus-format /metrics, /healthz, /readyz, and
// /debug/pprof; -slow-rpc enables trace-tagged slow-call logging.
//
// A coordinator can attach the serving plane for heavy read traffic with
// -serve (tune with -cache-bytes and -quota): repeated queries are answered
// from an epoch-keyed cache, subscribers to the same continuous query share
// one worker-side install, and query load sheds by priority class while
// ingest and tracking are never shed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stcam"
)

// parsePeers parses the -peers value: comma-separated id=host:port entries
// naming the other coordinators of the HA group.
func parsePeers(s string) (map[stcam.NodeID]string, error) {
	out := make(map[stcam.NodeID]string)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", entry)
		}
		out[stcam.NodeID(id)] = addr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q names no peers", s)
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stcamd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role        = flag.String("role", "worker", "node role: coordinator | worker")
		id          = flag.String("id", "", "node id (required for workers; names a coordinator within an HA group)")
		addr        = flag.String("addr", ":7601", "listen address")
		coordAddr   = flag.String("coordinator", "127.0.0.1:7600", "coordinator address, or comma-separated HA candidate list (workers)")
		peers       = flag.String("peers", "", "coordinator: HA peer list id=host:port,id=host:port (empty = single coordinator)")
		standby     = flag.Bool("standby", false, "coordinator: boot as a standby following the HA group's leader")
		lease       = flag.Duration("lease", 0, "coordinator: HA leader lease interval (0 = default 250ms)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "worker heartbeat interval")
		hbTimeout   = flag.Duration("failure-timeout", 5*time.Second, "coordinator: declare workers dead after this silence")
		retention   = flag.Duration("retention", 0, "worker observation retention (0 = unlimited)")
		sweep       = flag.Duration("sweep", time.Second, "coordinator: liveness sweep interval")
		callTimeout = flag.Duration("call-timeout", 2*time.Second, "per-attempt RPC deadline for outbound calls (negative = unbounded)")
		attempts    = flag.Int("call-attempts", 3, "RPC attempts per outbound call, including the first (1 = no retries)")
		httpAddr    = flag.String("http", "", "observability HTTP address serving /metrics, /healthz, /readyz, /debug/pprof (empty = disabled)")
		slowRPC     = flag.Duration("slow-rpc", 0, "log outbound RPCs slower than this, with trace IDs (0 = disabled)")
		serveFlag   = flag.Bool("serve", false, "coordinator: attach the serving plane (shared subscription fan-out, result cache, admission control)")
		cacheBytes  = flag.Int64("cache-bytes", 8<<20, "coordinator -serve: result-cache byte budget (negative = caching disabled)")
		quota       = flag.Float64("quota", 0, "coordinator -serve: per-tenant sustained queries/sec (0 = unlimited)")
	)
	flag.Parse()

	transport := stcam.NewTCP()
	defer transport.Close()
	opts := stcam.Options{
		HeartbeatTimeout: *hbTimeout,
		Retention:        *retention,
		RetryPolicy:      stcam.Policy{MaxAttempts: *attempts, PerAttemptTimeout: *callTimeout, SlowCallThreshold: *slowRPC},
		Standby:          *standby,
		LeaseInterval:    *lease,
	}
	if *peers != "" {
		peerMap, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		if *id == "" {
			return fmt.Errorf("-peers requires -id to name this coordinator")
		}
		opts.CoordinatorID = stcam.NodeID(*id)
		opts.CoordinatorPeers = peerMap
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	switch *role {
	case "coordinator":
		coord := stcam.NewCoordinator(*addr, transport, nil, opts)
		if err := coord.Start(); err != nil {
			return err
		}
		defer coord.Stop()
		lastRole, _, _ := coord.Role()
		if lastRole == "single" {
			log.Printf("coordinator listening on %s", coord.Addr())
		} else {
			log.Printf("coordinator %s listening on %s as %s", *id, coord.Addr(), lastRole)
		}
		if *serveFlag {
			stcam.NewFrontend(coord, stcam.ServeOptions{
				CacheBytes: *cacheBytes,
				QuotaRate:  *quota,
			})
			log.Printf("serving plane attached (cache %d bytes, quota %.1f q/s/tenant)", *cacheBytes, *quota)
		}
		if *httpAddr != "" {
			o, err := stcam.ServeObs(*httpAddr, stcam.ObsOptions{
				Node:     "coordinator",
				Snapshot: coord.StatsSnapshot,
				Ready:    coord.Ready,
			})
			if err != nil {
				return err
			}
			defer o.Close()
			log.Printf("observability on http://%s/metrics", o.Addr())
		}
		ticker := time.NewTicker(*sweep)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if role, leader, laddr := coord.Role(); role != lastRole {
					log.Printf("control-plane role: %s -> %s (leader %s @ %s, epoch %d)", lastRole, role, leader, laddr, coord.Epoch())
					lastRole = role
				}
				if died := coord.Sweep(context.Background(), time.Now()); len(died) > 0 {
					for _, m := range died {
						log.Printf("worker %s declared dead; cameras reassigned (epoch %d)", m.Node, coord.Epoch())
					}
				}
			case <-stop:
				log.Print("shutting down")
				return nil
			}
		}

	case "worker":
		if *id == "" {
			return fmt.Errorf("worker requires -id")
		}
		w := stcam.NewWorker(stcam.NodeID(*id), *addr, *coordAddr, transport, opts)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := w.Start(ctx)
		cancel()
		if err != nil {
			return err
		}
		defer w.Stop()
		w.StartHeartbeats(*heartbeat)
		log.Printf("worker %s listening on %s, coordinator %s", *id, w.Addr(), *coordAddr)
		if *httpAddr != "" {
			o, err := stcam.ServeObs(*httpAddr, stcam.ObsOptions{
				Node:     *id,
				Snapshot: w.StatsSnapshot,
				Ready:    w.Ready,
			})
			if err != nil {
				return err
			}
			defer o.Close()
			log.Printf("observability on http://%s/metrics", o.Addr())
		}
		<-stop
		log.Print("shutting down")
		return nil

	default:
		return fmt.Errorf("unknown role %q (want coordinator or worker)", *role)
	}
}
