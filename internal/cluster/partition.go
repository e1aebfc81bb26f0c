package cluster

import (
	"hash/fnv"
	"sort"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

// Assignment maps camera IDs to owning workers.
type Assignment map[uint32]wire.NodeID

// Counts returns the number of cameras per node.
func (a Assignment) Counts() map[wire.NodeID]int {
	out := make(map[wire.NodeID]int)
	for _, n := range a {
		out[n]++
	}
	return out
}

// Partitioner decides which worker owns which camera. Implementations must be
// deterministic: the same cameras and nodes always produce the same
// assignment, so coordinator restarts converge.
type Partitioner interface {
	// Partition assigns every camera to exactly one of the given nodes.
	// Nodes must be non-empty; an empty camera list yields an empty map.
	Partition(cams []wire.CameraInfo, nodes []wire.NodeID) Assignment
	// Name identifies the strategy in experiment output.
	Name() string
}

// SpatialPartitioner assigns contiguous spatial blocks of cameras to workers
// by ordering cameras along a Hilbert curve and chunking evenly. Neighboring
// cameras land on the same worker, which keeps tracking handoffs local —
// the property experiment R3/R5 quantifies.
type SpatialPartitioner struct{}

var _ Partitioner = (*SpatialPartitioner)(nil)

// Name implements Partitioner.
func (*SpatialPartitioner) Name() string { return "spatial" }

// Partition implements Partitioner.
func (*SpatialPartitioner) Partition(cams []wire.CameraInfo, nodes []wire.NodeID) Assignment {
	out := make(Assignment, len(cams))
	if len(cams) == 0 || len(nodes) == 0 {
		return out
	}
	sortedNodes := sortNodes(nodes)
	// Normalize positions into the Hilbert lattice.
	bounds := geo.EmptyRect()
	for _, c := range cams {
		bounds = bounds.UnionPoint(c.Pos)
	}
	const order = 12 // 4096×4096 lattice: ample resolution for any deployment
	side := float64(int(1) << order)
	w, h := bounds.Width(), bounds.Height()
	type keyed struct {
		id uint64 // hilbert index
		c  uint32
	}
	ks := make([]keyed, len(cams))
	for i, c := range cams {
		var x, y float64
		if w > 0 {
			x = (c.Pos.X - bounds.Min.X) / w * (side - 1)
		}
		if h > 0 {
			y = (c.Pos.Y - bounds.Min.Y) / h * (side - 1)
		}
		ks[i] = keyed{id: hilbertD(order, uint32(x), uint32(y)), c: c.ID}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].id != ks[j].id {
			return ks[i].id < ks[j].id
		}
		return ks[i].c < ks[j].c
	})
	per := (len(ks) + len(sortedNodes) - 1) / len(sortedNodes)
	for i, k := range ks {
		out[k.c] = sortedNodes[i/per]
	}
	return out
}

// HashPartitioner assigns cameras with rendezvous (highest-random-weight)
// hashing: each camera goes to the node with the highest hash(camera, node).
// Node changes only move the cameras of the affected node — minimal churn —
// but spatial locality is destroyed, which is exactly the trade-off R5
// measures.
type HashPartitioner struct{}

var _ Partitioner = (*HashPartitioner)(nil)

// Name implements Partitioner.
func (*HashPartitioner) Name() string { return "hash" }

// Partition implements Partitioner.
func (*HashPartitioner) Partition(cams []wire.CameraInfo, nodes []wire.NodeID) Assignment {
	out := make(Assignment, len(cams))
	if len(cams) == 0 || len(nodes) == 0 {
		return out
	}
	sortedNodes := sortNodes(nodes)
	for _, c := range cams {
		var best wire.NodeID
		var bestScore uint64
		for _, n := range sortedNodes {
			if score := RendezvousScore(c.ID, n); best == "" || score > bestScore {
				best, bestScore = n, score
			}
		}
		out[c.ID] = best
	}
	return out
}

// RendezvousScore is camera's highest-random-weight score on node: FNV-64a
// over the camera ID (4 bytes, big-endian) followed by the node ID. Both the
// hash partitioner and replica placement rank nodes by it.
func RendezvousScore(camera uint32, node wire.NodeID) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(camera >> 24), byte(camera >> 16), byte(camera >> 8), byte(camera)})
	h.Write([]byte(node))
	return h.Sum64()
}

// RoundRobinPartitioner deals cameras to nodes in ID order. The naive static
// baseline.
type RoundRobinPartitioner struct{}

var _ Partitioner = (*RoundRobinPartitioner)(nil)

// Name implements Partitioner.
func (*RoundRobinPartitioner) Name() string { return "roundrobin" }

// Partition implements Partitioner.
func (*RoundRobinPartitioner) Partition(cams []wire.CameraInfo, nodes []wire.NodeID) Assignment {
	out := make(Assignment, len(cams))
	if len(cams) == 0 || len(nodes) == 0 {
		return out
	}
	sortedNodes := sortNodes(nodes)
	sorted := make([]wire.CameraInfo, len(cams))
	copy(sorted, cams)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, c := range sorted {
		out[c.ID] = sortedNodes[i%len(sortedNodes)]
	}
	return out
}

func sortNodes(nodes []wire.NodeID) []wire.NodeID {
	out := make([]wire.NodeID, len(nodes))
	copy(out, nodes)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hilbertD converts lattice coordinates (x, y) on a 2^order grid to the
// distance along the Hilbert curve.
func hilbertD(order int, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s /= 2 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
