package camera

import (
	"fmt"
	"sort"
	"sync"

	"stcam/internal/geo"
)

// Network is the set of cameras under management plus the vision graph: a
// directed multigraph edge (a → b) means an object leaving camera a's view
// plausibly appears next in camera b's view. The graph is seeded from FOV
// geometry and refined online from observed transits; tracking uses it to
// prime only the likely next cameras during a handoff.
//
// Network is safe for concurrent use: reads vastly outnumber writes (the
// topology changes only on registration and learning updates).
type Network struct {
	mu    sync.RWMutex
	cams  map[ID]*Camera
	adj   map[ID]map[ID]*EdgeStats
	index *spatialIndex // optional covering accelerator; nil → linear scans
}

// EdgeStats accumulates transit observations along a vision-graph edge.
type EdgeStats struct {
	Count        int64   // observed transits a → b
	MeanTransitS float64 // running mean transit time, seconds
	Geometric    bool    // edge came from FOV geometry (vs learned)
}

// NewNetwork returns an empty camera network.
func NewNetwork() *Network {
	return &Network{
		cams: make(map[ID]*Camera),
		adj:  make(map[ID]map[ID]*EdgeStats),
	}
}

// Add registers a camera. Re-registering an existing ID replaces the camera
// but keeps its learned edges (re-calibration should not forget topology).
func (n *Network) Add(c *Camera) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cams[c.ID] = c
	if n.adj[c.ID] == nil {
		n.adj[c.ID] = make(map[ID]*EdgeStats)
	}
	n.index = nil // registration invalidates the covering index
}

// Camera returns the camera with the given ID.
func (n *Network) Camera(id ID) (*Camera, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	c, ok := n.cams[id]
	return c, ok
}

// IDs returns all camera IDs in ascending order.
func (n *Network) IDs() []ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]ID, 0, len(n.cams))
	for id := range n.cams {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// All returns the cameras sorted by ID.
func (n *Network) All() []*Camera {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Camera, 0, len(n.cams))
	for _, c := range n.cams {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SeedGeometricEdges creates bidirectional vision-graph edges between every
// pair of cameras whose FOVs overlap or whose FOV boundaries come within
// maxGap meters of each other (an object can cross the blind gap). It returns
// the number of directed edges added. Existing learned edges are preserved.
func (n *Network) SeedGeometricEdges(maxGap float64) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	cams := make([]*Camera, 0, len(n.cams))
	for _, c := range n.cams {
		cams = append(cams, c)
	}
	sort.Slice(cams, func(i, j int) bool { return cams[i].ID < cams[j].ID })
	added := 0
	for i := 0; i < len(cams); i++ {
		a := cams[i]
		grown := a.bounds.Expand(maxGap)
		for j := i + 1; j < len(cams); j++ {
			b := cams[j]
			if !grown.Intersects(b.bounds) {
				continue
			}
			near := a.Overlaps(b)
			if !near && maxGap > 0 {
				// Conservative proximity: expanded bounding boxes already
				// intersect; accept when the FOV polygons come close.
				near = polysWithin(a.fov, b.fov, maxGap)
			}
			if near {
				added += n.addEdgeLocked(a.ID, b.ID, true)
				added += n.addEdgeLocked(b.ID, a.ID, true)
			}
		}
	}
	return added
}

// polysWithin reports whether any vertex of one polygon is within gap of the
// other polygon's bounding box (cheap approximation of polygon distance,
// adequate for blind-gap seeding).
func polysWithin(a, b geo.Polygon, gap float64) bool {
	bb := b.Bounds()
	for _, p := range a {
		if bb.Expand(gap).Contains(p) {
			return true
		}
	}
	ab := a.Bounds()
	for _, p := range b {
		if ab.Expand(gap).Contains(p) {
			return true
		}
	}
	return false
}

func (n *Network) addEdgeLocked(from, to ID, geometric bool) int {
	if from == to {
		return 0
	}
	edges := n.adj[from]
	if edges == nil {
		edges = make(map[ID]*EdgeStats)
		n.adj[from] = edges
	}
	if e, ok := edges[to]; ok {
		if geometric {
			e.Geometric = true
		}
		return 0
	}
	edges[to] = &EdgeStats{Geometric: geometric}
	return 1
}

// ObserveTransit records that an object left camera `from` and re-appeared at
// camera `to` after transitSeconds. Unknown edges are learned. Transits
// between unregistered cameras are rejected.
func (n *Network) ObserveTransit(from, to ID, transitSeconds float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.cams[from]; !ok {
		return fmt.Errorf("camera: transit from unknown camera %d", from)
	}
	if _, ok := n.cams[to]; !ok {
		return fmt.Errorf("camera: transit to unknown camera %d", to)
	}
	if from == to {
		return nil
	}
	n.addEdgeLocked(from, to, false)
	e := n.adj[from][to]
	e.Count++
	// Running mean.
	e.MeanTransitS += (transitSeconds - e.MeanTransitS) / float64(e.Count)
	return nil
}

// Neighbors returns the IDs reachable from the given camera along the vision
// graph, sorted ascending.
func (n *Network) Neighbors(id ID) []ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	edges := n.adj[id]
	out := make([]ID, 0, len(edges))
	for to := range edges {
		out = append(out, to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeCount returns the number of directed edges in the vision graph.
func (n *Network) EdgeCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, edges := range n.adj {
		total += len(edges)
	}
	return total
}

// CamerasCovering returns the IDs of cameras whose FOV contains p, sorted.
func (n *Network) CamerasCovering(p geo.Point) []ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []ID
	if n.index != nil {
		for _, id := range n.candidatesFor(geo.Rect{Min: p, Max: p}) {
			if n.cams[id].Sees(p) {
				out = append(out, id)
			}
		}
	} else {
		for id, c := range n.cams {
			if c.Sees(p) {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CamerasIntersecting returns the IDs of cameras whose FOV intersects r,
// sorted.
func (n *Network) CamerasIntersecting(r geo.Rect) []ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []ID
	if n.index != nil {
		for _, id := range n.candidatesFor(r) {
			c := n.cams[id]
			if c.bounds.Intersects(r) && c.fov.IntersectsRect(r) {
				out = append(out, id)
			}
		}
	} else {
		for id, c := range n.cams {
			if c.bounds.Intersects(r) && c.fov.IntersectsRect(r) {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AvgDegree returns the mean out-degree of the vision graph (0 when the
// network is empty). Experiment R3's message bound is O(degree), so this is
// the number that explains the handoff-cost gap against broadcast.
func (n *Network) AvgDegree() float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.cams) == 0 {
		return 0
	}
	total := 0
	for _, edges := range n.adj {
		total += len(edges)
	}
	return float64(total) / float64(len(n.cams))
}
