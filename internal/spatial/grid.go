package spatial

import (
	"math"

	"stcam/internal/geo"
)

// Grid is a uniform grid index: the plane is divided into square cells of a
// fixed size, each holding a small slice of items. It has O(1) insert/delete
// and excellent range performance when the cell size matches the query size,
// but kNN degrades when data is sparse (ring expansion must scan far).
//
// The grid is unbounded: cells are materialized lazily in a map keyed by
// integer cell coordinates, so the index works for any world extent.
type Grid struct {
	cellSize float64
	cells    map[cellKey][]Item
	n        int
}

type cellKey struct{ cx, cy int32 }

var _ Index = (*Grid)(nil)

// NewGrid returns a grid index with the given cell size in meters. A
// non-positive size panics: it is a construction-time programming error, not
// a runtime condition.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		panic("spatial: grid cell size must be positive and finite")
	}
	return &Grid{cellSize: cellSize, cells: make(map[cellKey][]Item)}
}

func (g *Grid) key(p geo.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / g.cellSize)),
		cy: int32(math.Floor(p.Y / g.cellSize)),
	}
}

// Insert implements Index.
func (g *Grid) Insert(id uint64, p geo.Point) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], Item{ID: id, P: p})
	g.n++
}

// Delete implements Index.
func (g *Grid) Delete(id uint64, p geo.Point) bool {
	k := g.key(p)
	cell := g.cells[k]
	for i, it := range cell {
		if it.ID == id && it.P == p {
			last := len(cell) - 1
			cell[i] = cell[last]
			cell = cell[:last]
			if len(cell) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = cell
			}
			g.n--
			return true
		}
	}
	return false
}

// Update implements Index.
func (g *Grid) Update(id uint64, old, new geo.Point) bool {
	if !g.Delete(id, old) {
		return false
	}
	g.Insert(id, new)
	return true
}

// Range implements Index.
func (g *Grid) Range(r geo.Rect, fn func(Item) bool) {
	if r.IsEmpty() || g.n == 0 {
		return
	}
	lo, hi := g.key(r.Min), g.key(r.Max)
	// When the query covers more cells than exist, iterating the map is
	// cheaper than walking empty cell coordinates.
	nx, ny := int64(hi.cx)-int64(lo.cx)+1, int64(hi.cy)-int64(lo.cy)+1
	if nx*ny > int64(len(g.cells))*2 {
		for _, cell := range g.cells {
			for _, it := range cell {
				if r.Contains(it.P) && !fn(it) {
					return
				}
			}
		}
		return
	}
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, it := range g.cells[cellKey{cx, cy}] {
				if r.Contains(it.P) && !fn(it) {
					return
				}
			}
		}
	}
}

// KNN implements Index using expanding ring search: examine the cells in
// rings of increasing radius around the query cell, stopping once the k-th
// best distance is smaller than the closest possible point in the next ring.
func (g *Grid) KNN(q geo.Point, k int) []Neighbor {
	acc := newKNNAcc(k)
	if k <= 0 || g.n == 0 {
		return acc.results()
	}
	center := g.key(q)
	// Upper bound on ring radius: enough to cover every existing cell.
	maxRing := 1
	for key := range g.cells {
		dx := int(key.cx) - int(center.cx)
		if dx < 0 {
			dx = -dx
		}
		dy := int(key.cy) - int(center.cy)
		if dy < 0 {
			dy = -dy
		}
		if dx > maxRing {
			maxRing = dx
		}
		if dy > maxRing {
			maxRing = dy
		}
	}
	scan := func(key cellKey) {
		for _, it := range g.cells[key] {
			acc.offer(Neighbor{Item: it, Dist2: q.Dist2(it.P)})
		}
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Prune: the nearest possible point in ring r is (r-1) cells away.
		if ring > 0 && acc.full() {
			minDist := float64(ring-1) * g.cellSize
			if minDist > 0 && minDist*minDist > acc.worstDist2() {
				break
			}
		}
		if ring == 0 {
			scan(center)
			continue
		}
		lo := int(center.cx) - ring
		hi := int(center.cx) + ring
		for cx := lo; cx <= hi; cx++ {
			scan(cellKey{int32(cx), center.cy - int32(ring)})
			scan(cellKey{int32(cx), center.cy + int32(ring)})
		}
		for cy := int(center.cy) - ring + 1; cy <= int(center.cy)+ring-1; cy++ {
			scan(cellKey{center.cx - int32(ring), int32(cy)})
			scan(cellKey{center.cx + int32(ring), int32(cy)})
		}
	}
	return acc.results()
}

// Len implements Index.
func (g *Grid) Len() int { return g.n }

// CellCount returns the number of materialized (non-empty) cells.
func (g *Grid) CellCount() int { return len(g.cells) }
