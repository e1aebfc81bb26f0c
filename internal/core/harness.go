package core

import (
	"context"
	"fmt"
	"strings"

	"stcam/internal/cluster"
	"stcam/internal/wire"
)

// Cluster bundles a coordinator and its workers over one transport — the
// assembly used by the examples, benchmarks, and tests. Production
// deployments run the same pieces as separate processes via cmd/stcamd.
type Cluster struct {
	Coordinator *Coordinator
	Workers     []*Worker
	Transport   cluster.Transport
}

// NewLocalCluster assembles a coordinator plus n workers on an in-process
// transport, registers and heartbeats each worker once, and returns the
// running cluster. The caller must Stop it.
func NewLocalCluster(n int, p cluster.Partitioner, opts Options) (*Cluster, error) {
	return NewLocalClusterOver(cluster.NewInProc(), n, p, opts)
}

// NewLocalClusterOver is NewLocalCluster over a caller-supplied transport —
// typically a cluster.Faulty decorator around an InProc, so tests and the R14
// experiment can inject drops, latency, hangs, and partitions on specific
// links. Cluster.Transport keeps exposing the supplied transport; every node
// additionally wraps it in the resilience layer per opts.RetryPolicy.
func NewLocalClusterOver(tr cluster.Transport, n int, p cluster.Partitioner, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one worker")
	}
	coord := NewCoordinator("coord", tr, p, opts)
	if err := coord.Start(); err != nil {
		tr.Close()
		return nil, err
	}
	c := &Cluster{Coordinator: coord, Transport: tr}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		w := NewWorker(wire.NodeID(fmt.Sprintf("w%02d", i+1)), fmt.Sprintf("worker-%02d", i+1), "coord", tr, opts)
		if err := w.Start(ctx); err != nil {
			c.Stop()
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}
	return c, nil
}

// HACluster bundles a replicated coordinator group, its workers, and the
// FaultyNet that gives every node its own fault-injectable link set — the
// assembly the failover chaos soak and the HA tests drive.
type HACluster struct {
	Coordinators []*Coordinator // ID order: c1 boots leader, the rest standby
	Workers      []*Worker
	Net          *cluster.FaultyNet
}

// CoordAddrHA returns the serve address of the i-th (1-based) coordinator.
func CoordAddrHA(i int) string { return fmt.Sprintf("coord-%d", i) }

// NewHACluster assembles m coordinators (the first boots as leader, the rest
// as standbys) and n workers over a seeded FaultyNet on an in-process base
// transport. Every node runs over its own net view, so tests can partition
// any link symmetrically. Workers get the full coordinator candidate list.
// The caller must Stop it.
func NewHACluster(m, n int, p cluster.Partitioner, seed int64, opts Options) (*HACluster, error) {
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("core: HA cluster needs at least one coordinator and one worker")
	}
	net := cluster.NewFaultyNet(cluster.NewInProc(), seed)
	hc := &HACluster{Net: net}
	peersOf := func(self int) map[wire.NodeID]string {
		peers := make(map[wire.NodeID]string, m-1)
		for j := 1; j <= m; j++ {
			if j != self {
				peers[wire.NodeID(fmt.Sprintf("c%d", j))] = CoordAddrHA(j)
			}
		}
		return peers
	}
	for i := 1; i <= m; i++ {
		o := opts
		o.CoordinatorID = wire.NodeID(fmt.Sprintf("c%d", i))
		o.CoordinatorPeers = peersOf(i)
		o.Standby = i > 1
		coord := NewCoordinator(CoordAddrHA(i), net.View(CoordAddrHA(i)), p, o)
		if err := coord.Start(); err != nil {
			hc.Stop()
			return nil, err
		}
		hc.Coordinators = append(hc.Coordinators, coord)
	}
	coordList := make([]string, m)
	for i := range coordList {
		coordList[i] = CoordAddrHA(i + 1)
	}
	coords := strings.Join(coordList, ",")
	ctx := context.Background()
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("worker-%02d", i+1)
		w := NewWorker(wire.NodeID(fmt.Sprintf("w%02d", i+1)), addr, coords, net.View(addr), opts)
		if err := w.Start(ctx); err != nil {
			hc.Stop()
			return nil, err
		}
		hc.Workers = append(hc.Workers, w)
	}
	return hc, nil
}

// Stop tears the HA cluster down.
func (hc *HACluster) Stop() {
	for _, w := range hc.Workers {
		w.Stop()
	}
	for _, c := range hc.Coordinators {
		c.Stop()
	}
	if hc.Net != nil {
		hc.Net.Close()
	}
}

// Stop tears the cluster down.
func (c *Cluster) Stop() {
	for _, w := range c.Workers {
		w.Stop()
	}
	if c.Coordinator != nil {
		c.Coordinator.Stop()
	}
	if c.Transport != nil {
		c.Transport.Close()
	}
}

// Worker returns the worker with the given node ID, or nil.
func (c *Cluster) Worker(id wire.NodeID) *Worker {
	for _, w := range c.Workers {
		if w.ID() == id {
			return w
		}
	}
	return nil
}
