// Package spatial provides in-memory point indexes over identified points: a
// uniform grid and a brute-force linear scan. Both implement the Index
// interface and return identical results for range and kNN queries; they
// differ only in performance, which experiment R6 measures. No worker uses
// them: the store's own grid lives in stindex.
package spatial

import (
	"math"
	"sort"

	"stcam/internal/geo"
)

// Item is an identified point stored in an index.
type Item struct {
	ID uint64
	P  geo.Point
}

// Neighbor is a kNN result: an item plus its squared distance to the query.
type Neighbor struct {
	Item
	Dist2 float64
}

// Index is the common contract for the point indexes in this package.
// Implementations are NOT safe for concurrent mutation; the framework
// serializes writes per worker and takes read locks around queries.
type Index interface {
	// Insert adds an item. Multiple items may share a position; IDs need not
	// be unique (the framework uses unique observation IDs).
	Insert(id uint64, p geo.Point)
	// Delete removes the item with the given id at position p, returning
	// whether it was found. The position must match the inserted position.
	Delete(id uint64, p geo.Point) bool
	// Update moves an item from old to new.
	Update(id uint64, old, new geo.Point) bool
	// Range calls fn for every item inside r (boundary inclusive) until fn
	// returns false.
	Range(r geo.Rect, fn func(Item) bool)
	// KNN returns the k items nearest to q, ordered by ascending distance,
	// ties broken by ID for determinism. Fewer than k are returned when the
	// index holds fewer items.
	KNN(q geo.Point, k int) []Neighbor
	// Len returns the number of stored items.
	Len() int
}

// Collect returns all items in r as a slice, sorted by ID for deterministic
// comparison.
func Collect(ix Index, r geo.Rect) []Item {
	var out []Item
	ix.Range(r, func(it Item) bool {
		out = append(out, it)
		return true
	})
	SortItems(out)
	return out
}

// KNNWithin is a bounded kNN over any Index: the k items nearest to q whose
// squared distance does not exceed maxDist2 (inclusive; maxDist2 <= 0 means
// unbounded). It ranges only the bounding square of the search radius, so a
// tight pushed-down bound touches a fraction of the index regardless of the
// implementation's own kNN strategy.
func KNNWithin(ix Index, q geo.Point, k int, maxDist2 float64) []Neighbor {
	if maxDist2 <= 0 {
		return ix.KNN(q, k)
	}
	if k <= 0 {
		return nil
	}
	r := math.Sqrt(maxDist2)
	acc := newKNNAcc(k)
	ix.Range(geo.RectOf(q.X-r, q.Y-r, q.X+r, q.Y+r), func(it Item) bool {
		d2 := q.Dist2(it.P)
		if d2 <= maxDist2 {
			acc.offer(Neighbor{Item: it, Dist2: d2})
		}
		return true
	})
	out := acc.heap
	sortNeighbors(out)
	return out
}

// SortItems orders items by ID, then position, giving a canonical order for
// result comparison across index implementations.
func SortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].ID != items[j].ID {
			return items[i].ID < items[j].ID
		}
		if items[i].P.X != items[j].P.X {
			return items[i].P.X < items[j].P.X
		}
		return items[i].P.Y < items[j].P.Y
	})
}

// sortNeighbors orders by ascending distance, ties broken by ID.
func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist2 != ns[j].Dist2 {
			return ns[i].Dist2 < ns[j].Dist2
		}
		return ns[i].ID < ns[j].ID
	})
}

// knnAcc accumulates the best k neighbors seen so far using a bounded
// max-heap keyed on (Dist2, ID).
type knnAcc struct {
	k    int
	heap []Neighbor // max-heap on (Dist2, ID)
}

func newKNNAcc(k int) *knnAcc { return &knnAcc{k: k} }

func neighborLess(a, b Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.ID < b.ID
}

// worst returns the current pruning bound: the distance beyond which a
// candidate cannot enter the result. +inf semantics are encoded by full=false.
func (a *knnAcc) full() bool { return len(a.heap) == a.k }

func (a *knnAcc) worstDist2() float64 { return a.heap[0].Dist2 }

// offer considers a candidate.
func (a *knnAcc) offer(n Neighbor) {
	if a.k <= 0 {
		return
	}
	if len(a.heap) < a.k {
		a.heap = append(a.heap, n)
		a.up(len(a.heap) - 1)
		return
	}
	if neighborLess(n, a.heap[0]) {
		a.heap[0] = n
		a.down(0)
	}
}

func (a *knnAcc) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !neighborLess(a.heap[parent], a.heap[i]) {
			break
		}
		a.heap[parent], a.heap[i] = a.heap[i], a.heap[parent]
		i = parent
	}
}

func (a *knnAcc) down(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && neighborLess(a.heap[largest], a.heap[l]) {
			largest = l
		}
		if r < n && neighborLess(a.heap[largest], a.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		a.heap[i], a.heap[largest] = a.heap[largest], a.heap[i]
		i = largest
	}
}

// results returns the accumulated neighbors in ascending order.
func (a *knnAcc) results() []Neighbor {
	out := make([]Neighbor, len(a.heap))
	copy(out, a.heap)
	sortNeighbors(out)
	return out
}
