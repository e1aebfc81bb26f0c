package spatial

import (
	"math/rand"
	"testing"

	"stcam/internal/geo"
)

// indexUnderTest wires every implementation into the shared conformance
// suite.
type indexFactory struct {
	name string
	make func() Index
}

func factories() []indexFactory {
	return []indexFactory{
		{"brute", func() Index { return NewBruteForce() }},
		{"grid", func() Index { return NewGrid(25) }},
		{"grid-coarse", func() Index { return NewGrid(400) }},
		{"grid-fine", func() Index { return NewGrid(3) }},
	}
}

func randomItems(rng *rand.Rand, n int, extent float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID: uint64(i + 1),
			P:  geo.Pt(rng.Float64()*extent, rng.Float64()*extent),
		}
	}
	return items
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Distances must match exactly; IDs may differ only on exact ties,
		// which the (Dist2, ID) ordering also forbids.
		if a[i].Dist2 != b[i].Dist2 || a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexEmpty(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			if ix.Len() != 0 {
				t.Fatal("fresh index not empty")
			}
			if got := Collect(ix, geo.RectOf(0, 0, 1000, 1000)); len(got) != 0 {
				t.Errorf("range on empty returned %v", got)
			}
			if got := ix.KNN(geo.Pt(5, 5), 3); len(got) != 0 {
				t.Errorf("kNN on empty returned %v", got)
			}
			if ix.Delete(1, geo.Pt(1, 1)) {
				t.Error("delete on empty succeeded")
			}
		})
	}
}

func TestIndexSingleItem(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			ix.Insert(42, geo.Pt(10, 20))
			if ix.Len() != 1 {
				t.Fatalf("Len = %d", ix.Len())
			}
			got := Collect(ix, geo.RectOf(0, 0, 100, 100))
			if len(got) != 1 || got[0].ID != 42 {
				t.Fatalf("range = %v", got)
			}
			nn := ix.KNN(geo.Pt(0, 0), 5)
			if len(nn) != 1 || nn[0].ID != 42 {
				t.Fatalf("kNN = %v", nn)
			}
			if !ix.Delete(42, geo.Pt(10, 20)) {
				t.Fatal("delete failed")
			}
			if ix.Len() != 0 {
				t.Fatalf("Len after delete = %d", ix.Len())
			}
		})
	}
}

func TestIndexBoundaryInclusive(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			ix.Insert(1, geo.Pt(10, 10))
			ix.Insert(2, geo.Pt(20, 20))
			// Query whose edges pass exactly through both points.
			got := Collect(ix, geo.RectOf(10, 10, 20, 20))
			if len(got) != 2 {
				t.Errorf("boundary query returned %d items, want 2: %v", len(got), got)
			}
		})
	}
}

func TestIndexDuplicatePositions(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			for i := uint64(1); i <= 50; i++ {
				ix.Insert(i, geo.Pt(5, 5)) // all at the same point
			}
			if ix.Len() != 50 {
				t.Fatalf("Len = %d", ix.Len())
			}
			got := Collect(ix, geo.RectAround(geo.Pt(5, 5), 1))
			if len(got) != 50 {
				t.Fatalf("range returned %d", len(got))
			}
			nn := ix.KNN(geo.Pt(5, 5), 10)
			if len(nn) != 10 {
				t.Fatalf("kNN returned %d", len(nn))
			}
			// Ties broken by ascending ID.
			for i, n := range nn {
				if n.ID != uint64(i+1) {
					t.Fatalf("tie-break order wrong: %v", nn)
				}
			}
			if !ix.Delete(25, geo.Pt(5, 5)) {
				t.Fatal("delete of one duplicate failed")
			}
			if ix.Len() != 49 {
				t.Fatalf("Len after delete = %d", ix.Len())
			}
		})
	}
}

// TestIndexMatchesBruteForce is the core conformance property from DESIGN.md:
// every index returns exactly the brute-force answer for random workloads of
// inserts, deletes, range and kNN queries.
func TestIndexMatchesBruteForce(t *testing.T) {
	for _, f := range factories() {
		if f.name == "brute" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			oracle := NewBruteForce()
			ix := f.make()
			live := make(map[uint64]geo.Point)
			nextID := uint64(1)

			for step := 0; step < 3000; step++ {
				op := rng.Float64()
				switch {
				case op < 0.45 || len(live) == 0: // insert
					p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
					oracle.Insert(nextID, p)
					ix.Insert(nextID, p)
					live[nextID] = p
					nextID++
				case op < 0.6: // delete random live item
					for id, p := range live {
						if !ix.Delete(id, p) {
							t.Fatalf("step %d: delete(%d) failed", step, id)
						}
						oracle.Delete(id, p)
						delete(live, id)
						break
					}
				case op < 0.7: // update random live item
					for id, p := range live {
						np := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
						if !ix.Update(id, p, np) {
							t.Fatalf("step %d: update(%d) failed", step, id)
						}
						oracle.Update(id, p, np)
						live[id] = np
						break
					}
				case op < 0.9: // range query
					c := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
					r := geo.RectAround(c, rng.Float64()*150)
					want := Collect(oracle, r)
					got := Collect(ix, r)
					if !itemsEqual(got, want) {
						t.Fatalf("step %d: range %v mismatch\n got %v\nwant %v", step, r, got, want)
					}
				default: // kNN query
					q := geo.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
					k := 1 + rng.Intn(20)
					want := oracle.KNN(q, k)
					got := ix.KNN(q, k)
					if !neighborsEqual(got, want) {
						t.Fatalf("step %d: kNN(%v, %d) mismatch\n got %v\nwant %v", step, q, k, got, want)
					}
				}
				if ix.Len() != oracle.Len() {
					t.Fatalf("step %d: Len %d != oracle %d", step, ix.Len(), oracle.Len())
				}
			}
		})
	}
}

// TestIndexOutOfWorld verifies every index accepts points far outside the
// nominal world rectangle.
func TestIndexOutOfWorld(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			far := geo.Pt(5000, -7000)
			ix.Insert(1, far)
			ix.Insert(2, geo.Pt(500, 500))
			got := Collect(ix, geo.RectAround(far, 10))
			if len(got) != 1 || got[0].ID != 1 {
				t.Errorf("range around out-of-world point = %v", got)
			}
			nn := ix.KNN(geo.Pt(4990, -6990), 1)
			if len(nn) != 1 || nn[0].ID != 1 {
				t.Errorf("kNN near out-of-world point = %v", nn)
			}
			if !ix.Delete(1, far) {
				t.Error("delete of out-of-world point failed")
			}
		})
	}
}

func TestIndexRangeEarlyStop(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			for i := uint64(1); i <= 100; i++ {
				ix.Insert(i, geo.Pt(float64(i%10)*10, float64(i/10)*10))
			}
			count := 0
			ix.Range(geo.RectOf(0, 0, 1000, 1000), func(Item) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Errorf("early stop visited %d items, want 5", count)
			}
		})
	}
}

func TestIndexKNNZero(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			ix.Insert(1, geo.Pt(1, 1))
			if got := ix.KNN(geo.Pt(0, 0), 0); len(got) != 0 {
				t.Errorf("KNN(k=0) = %v", got)
			}
		})
	}
}

func TestIndexKNNMoreThanStored(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			for i := uint64(1); i <= 5; i++ {
				ix.Insert(i, geo.Pt(float64(i), 0))
			}
			got := ix.KNN(geo.Pt(0, 0), 50)
			if len(got) != 5 {
				t.Fatalf("KNN(k=50) returned %d", len(got))
			}
			for i := 1; i < len(got); i++ {
				if got[i].Dist2 < got[i-1].Dist2 {
					t.Fatalf("kNN results not sorted: %v", got)
				}
			}
		})
	}
}

func TestGridCellAccounting(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, geo.Pt(5, 5))
	g.Insert(2, geo.Pt(6, 6))  // same cell
	g.Insert(3, geo.Pt(55, 5)) // different cell
	if g.CellCount() != 2 {
		t.Errorf("CellCount = %d, want 2", g.CellCount())
	}
	g.Delete(1, geo.Pt(5, 5))
	g.Delete(2, geo.Pt(6, 6))
	if g.CellCount() != 1 {
		t.Errorf("CellCount after emptying a cell = %d, want 1", g.CellCount())
	}
}

func TestNewGridPanicsOnBadSize(t *testing.T) {
	for _, size := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", size)
				}
			}()
			NewGrid(size)
		}()
	}
}

func TestDeleteWrongPosition(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			ix.Insert(1, geo.Pt(10, 10))
			if ix.Delete(1, geo.Pt(11, 10)) {
				t.Error("delete with wrong position succeeded")
			}
			if ix.Len() != 1 {
				t.Errorf("Len = %d after failed delete", ix.Len())
			}
		})
	}
}

func TestUpdateMissing(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			if ix.Update(9, geo.Pt(0, 0), geo.Pt(1, 1)) {
				t.Error("update of missing item succeeded")
			}
		})
	}
}

func TestKNNAccumulator(t *testing.T) {
	acc := newKNNAcc(3)
	for i, d := range []float64{9, 4, 7, 1, 8, 2} {
		acc.offer(Neighbor{Item: Item{ID: uint64(i)}, Dist2: d})
	}
	got := acc.results()
	if len(got) != 3 {
		t.Fatalf("results len = %d", len(got))
	}
	wantD := []float64{1, 2, 4}
	for i, n := range got {
		if n.Dist2 != wantD[i] {
			t.Fatalf("results = %v", got)
		}
	}
}

// TestKNNWithinConformance: the bounded kNN helper must return, for every
// index implementation, exactly the unbounded kNN answer with candidates
// beyond the radius filtered out — including ties at exactly the bound.
func TestKNNWithinConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	items := randomItems(rng, 300, 1000)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make()
			for _, it := range items {
				ix.Insert(it.ID, it.P)
			}
			for trial := 0; trial < 40; trial++ {
				q := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
				k := 1 + rng.Intn(12)
				full := ix.KNN(q, len(items))
				maxDist2 := full[rng.Intn(len(full))].Dist2
				var want []Neighbor
				for _, n := range full {
					if n.Dist2 <= maxDist2 && len(want) < k {
						want = append(want, n)
					}
				}
				got := KNNWithin(ix, q, k, maxDist2)
				if len(got) != len(want) {
					t.Fatalf("trial %d: got %d neighbors, want %d", trial, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: neighbor %d = %+v, want %+v", trial, i, got[i], want[i])
					}
				}
			}
			if got := KNNWithin(ix, geo.Pt(0, 0), 5, 0); len(got) != 5 {
				t.Fatalf("unbounded KNNWithin returned %d, want 5", len(got))
			}
		})
	}
}
