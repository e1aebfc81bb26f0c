package spatial

import "stcam/internal/geo"

// BruteForce is the reference Index implementation: a flat slice with linear
// scans. It is the oracle the grid is property-tested against, and the
// "no index" baseline in experiment R6.
type BruteForce struct {
	items []Item
}

var _ Index = (*BruteForce)(nil)

// NewBruteForce returns an empty brute-force index.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Insert implements Index.
func (b *BruteForce) Insert(id uint64, p geo.Point) {
	b.items = append(b.items, Item{ID: id, P: p})
}

// Delete implements Index.
func (b *BruteForce) Delete(id uint64, p geo.Point) bool {
	for i, it := range b.items {
		if it.ID == id && it.P == p {
			last := len(b.items) - 1
			b.items[i] = b.items[last]
			b.items = b.items[:last]
			return true
		}
	}
	return false
}

// Update implements Index.
func (b *BruteForce) Update(id uint64, old, new geo.Point) bool {
	if !b.Delete(id, old) {
		return false
	}
	b.Insert(id, new)
	return true
}

// Range implements Index.
func (b *BruteForce) Range(r geo.Rect, fn func(Item) bool) {
	for _, it := range b.items {
		if r.Contains(it.P) {
			if !fn(it) {
				return
			}
		}
	}
}

// KNN implements Index.
func (b *BruteForce) KNN(q geo.Point, k int) []Neighbor {
	acc := newKNNAcc(k)
	for _, it := range b.items {
		acc.offer(Neighbor{Item: it, Dist2: q.Dist2(it.P)})
	}
	return acc.results()
}

// Len implements Index.
func (b *BruteForce) Len() int { return len(b.items) }
