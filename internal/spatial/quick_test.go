package spatial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stcam/internal/geo"
)

// Property: for every index, any random batch of inserts followed by a range
// query over a random rectangle returns exactly the brute-force answer.
func TestQuickRangeMatchesBrute(t *testing.T) {
	mk := map[string]func() Index{
		"grid": func() Index { return NewGrid(37) },
	}
	for name, factory := range mk {
		factory := factory
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, n uint8, qx, qy, qr float64) bool {
				if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(qr) {
					return true
				}
				rng := rand.New(rand.NewSource(seed))
				ix := factory()
				oracle := NewBruteForce()
				for i := 0; i < int(n); i++ {
					p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
					ix.Insert(uint64(i+1), p)
					oracle.Insert(uint64(i+1), p)
				}
				q := geo.RectAround(
					geo.Pt(math.Mod(math.Abs(qx), 1000), math.Mod(math.Abs(qy), 1000)),
					math.Mod(math.Abs(qr), 300),
				)
				got := Collect(ix, q)
				want := Collect(oracle, q)
				return itemsEqual(got, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: kNN results are sorted ascending, have no duplicate IDs, and the
// k-th distance lower-bounds everything excluded.
func TestQuickKNNInvariants(t *testing.T) {
	f := func(seed int64, n uint8, k uint8, qx, qy float64) bool {
		if math.IsNaN(qx) || math.IsNaN(qy) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		ix := NewGrid(37)
		type rec struct {
			id uint64
			p  geo.Point
		}
		var all []rec
		for i := 0; i < int(n); i++ {
			p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
			ix.Insert(uint64(i+1), p)
			all = append(all, rec{uint64(i + 1), p})
		}
		q := geo.Pt(math.Mod(math.Abs(qx), 1200)-100, math.Mod(math.Abs(qy), 1200)-100)
		kk := int(k%16) + 1
		got := ix.KNN(q, kk)
		if len(got) > kk || len(got) > len(all) {
			return false
		}
		seen := map[uint64]bool{}
		for i, nb := range got {
			if seen[nb.ID] {
				return false
			}
			seen[nb.ID] = true
			if i > 0 && got[i].Dist2 < got[i-1].Dist2 {
				return false
			}
		}
		if len(got) == kk {
			// Everything not returned is at least as far as the k-th.
			worst := got[len(got)-1].Dist2
			for _, r := range all {
				if !seen[r.id] && q.Dist2(r.p) < worst {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: delete-of-inserted always succeeds and Len tracks exactly.
func TestQuickInsertDeleteLen(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, ix := range []Index{NewBruteForce(), NewGrid(9)} {
			pts := make([]geo.Point, int(n))
			for i := range pts {
				pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
				ix.Insert(uint64(i+1), pts[i])
			}
			if ix.Len() != len(pts) {
				return false
			}
			// Delete in random order.
			order := rng.Perm(len(pts))
			for j, oi := range order {
				if !ix.Delete(uint64(oi+1), pts[oi]) {
					return false
				}
				if ix.Len() != len(pts)-j-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
