package vision

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// assocStream drives the dense associator and the reference model through one
// seeded stream and fails on the first difference. The stream mixes what can
// make the two disagree: re-sightings whose noise straddles the threshold,
// identities with identical prototypes (exact score ties, enrolled in both ID
// orders), zero vectors, probes of a second dimension, and retention expiry
// (whose swap-deletes reorder the dense rows). The dense side goes through AssociateBatch in
// random cuts, so the batch entry point is covered by the same comparison.
func assocStream(t *testing.T, seed int64, dim, identities, probes int) {
	t.Helper()
	const threshold = 0.75
	rng := rand.New(rand.NewSource(seed))
	// Noise at which a re-sighting's expected cosine sits on the threshold.
	edge := math.Sqrt((1/(threshold*threshold) - 1) / float64(dim))
	dense, ref := NewAssociator(threshold), newRefAssociator(threshold)

	var bases []Feature
	// seen mirrors the dense side's last-seen times on the reference IDs,
	// and latest its newest observation time, so expiry can be replayed.
	seen := map[uint64]int64{}
	latest := int64(math.MinInt64)
	observe := func(id uint64, at int64) { seen[id] = max(seen[id], at) }
	t0 := time.Unix(1_700_000_000, 0)
	step := 0
	var pending []Probe
	flush := func() {
		ids, expired := dense.AssociateBatch(pending, 0, nil)
		if expired != 0 {
			t.Fatalf("retention 0 expired %d identities", expired)
		}
		for i, p := range pending {
			want, _ := ref.Associate(p.Feature)
			if ids[i] != want {
				t.Fatalf("seed %d step %d: batch probe %d got id %d, reference %d", seed, step, i, ids[i], want)
			}
			latest = max(latest, p.At.UnixNano())
			observe(want, p.At.UnixNano())
		}
		pending = pending[:0]
	}
	associate := func(f Feature) {
		step++
		if rng.Intn(3) == 0 { // single-probe entry point
			flush()
			id, matched := dense.Associate(f)
			wantID, wantMatched := ref.Associate(f)
			if id != wantID || matched != wantMatched {
				t.Fatalf("seed %d step %d: got (%d, %v), reference (%d, %v)", seed, step, id, matched, wantID, wantMatched)
			}
			observe(id, pinned)
			return
		}
		pending = append(pending, Probe{Feature: f, At: t0.Add(time.Duration(step) * time.Second)})
		if rng.Intn(4) == 0 {
			flush()
		}
	}
	compareMatch := func(probe Feature) {
		flush()
		g := ref.gallery.Len()
		if dense.Gallery().Len() != g {
			t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, dense.Gallery().Len(), g)
		}
		for _, k := range []int{1, 5, g, g + 1} {
			got, gotErr := dense.Gallery().Match(probe, k)
			want, wantErr := ref.gallery.Match(probe, k)
			if gotErr != wantErr || len(got) != len(want) {
				t.Fatalf("seed %d step %d k=%d: got %d matches (%v), reference %d (%v)", seed, step, k, len(got), gotErr, len(want), wantErr)
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("seed %d step %d k=%d rank %d: got %+v, reference %+v", seed, step, k, i, got[i], want[i])
				}
			}
		}
	}

	for i := 0; i < identities; i++ {
		f := NewRandomFeature(rng, dim)
		bases = append(bases, f)
		associate(f)
	}
	compareMatch(bases[0])
	manual := uint64(1) << 40
	for i := 0; i < probes; i++ {
		switch r := rng.Intn(100); {
		case r < 70:
			sigma := edge * []float64{0.3, 0.9, 1.0, 1.1, 2}[rng.Intn(5)]
			associate(bases[rng.Intn(len(bases))].Perturb(rng, sigma))
		case r < 76: // a new identity
			f := NewRandomFeature(rng, dim)
			bases = append(bases, f)
			associate(f)
		case r < 82: // twins: one prototype under two IDs, then probed exactly
			flush()
			f := NewRandomFeature(rng, dim)
			lo, hi := manual, manual+1
			manual += 2
			if rng.Intn(2) == 0 {
				lo, hi = hi, lo
			}
			for _, id := range []uint64{lo, hi} {
				dense.Gallery().Enroll(id, f)
				ref.gallery.Enroll(id, f)
				observe(id, pinned)
			}
			bases = append(bases, f)
			associate(f.Clone())
		case r < 86:
			associate(make(Feature, dim))
		case r < 92: // second dimension, own small population
			associate(NewRandomFeature(rand.New(rand.NewSource(int64(rng.Intn(8)))), dim+8))
		case r < 98: // one probe under retention: expire the quiet identities
			flush()
			step++
			f := bases[rng.Intn(len(bases))].Perturb(rng, edge)
			at := t0.Add(time.Duration(step) * time.Second)
			retention := time.Duration(10+rng.Intn(200)) * time.Second
			ids, expired := dense.AssociateBatch([]Probe{{Feature: f, At: at}}, retention, nil)
			latest = max(latest, at.UnixNano())
			wantExpired := 0
			for id, last := range seen {
				if last < latest-int64(retention) {
					if !ref.gallery.Remove(id) {
						t.Fatalf("seed %d step %d: reference lost identity %d before it expired", seed, step, id)
					}
					delete(seen, id)
					wantExpired++
				}
			}
			want, _ := ref.Associate(f)
			observe(want, at.UnixNano())
			if expired != wantExpired || ids[0] != want {
				t.Fatalf("seed %d step %d: expired %d, id %d; reference expired %d, id %d", seed, step, expired, ids[0], wantExpired, want)
			}
		default:
			compareMatch(bases[rng.Intn(len(bases))].Perturb(rng, edge))
		}
	}
	compareMatch(make(Feature, dim))
	compareMatch(NewRandomFeature(rng, dim+8))
	compareMatch(nil)
}

// TestAssociatorMatchesReference proves the dense gallery makes the decisions
// the map-and-sort implementation made, with bit-equal scores.
func TestAssociatorMatchesReference(t *testing.T) {
	cases := []struct{ dim, identities, probes int }{
		{32, 1, 300},
		{32, 7, 600},
		{64, 60, 800},
		{32, 323, 800},
		{64, 2000, 150},
	}
	for i, c := range cases {
		c, seed := c, int64(100+i)
		t.Run(fmt.Sprintf("d%d_g%d", c.dim, c.identities), func(t *testing.T) {
			if testing.Short() && c.identities > 500 {
				t.Skip("large gallery under -short")
			}
			t.Parallel()
			assocStream(t, seed, c.dim, c.identities, c.probes)
			if c.identities <= 500 { // the reference model is O(G log G) per probe
				assocStream(t, seed+1000, c.dim, c.identities, c.probes)
			}
		})
	}
}

// feature returns a copy of row's prototype as a Feature.
func (b *block) feature(row int) Feature {
	f := make(Feature, b.dim)
	for i, v := range b.proto(row) {
		f[i] = float32(v)
	}
	return f
}

// scanTop1 is top1 without pruning and without the cached norms: every row
// scored by refCosine, the same winner rule (at least cut, ties to the lower
// ID).
func scanTop1(b *block, probe Feature, cut float64) (int, float64) {
	best, bestScore := -1, cut
	for row, id := range b.ids {
		s := refCosine(probe, b.feature(row))
		if s > bestScore || (s == bestScore && (best < 0 || id < b.ids[best])) {
			best, bestScore = row, s
		}
	}
	return best, bestScore
}

// TestKernelBitIdenticalToCosine pins the rule the differential suite rests
// on: the cached-norm kernels reproduce Cosine exactly, at every dimension
// including those the four-row unrolling does not divide, whatever the cut:
// none, the association threshold, or one raised by a planted best in the
// first row so that pruning skips most of the rest.
func TestKernelBitIdenticalToCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for dim := 1; dim <= 130; dim += 3 {
		for _, plant := range []bool{false, true} {
			g := NewGallery()
			probe := NewRandomFeature(rng, dim).Perturb(rng, 0.5)
			id := uint64(1)
			if plant {
				g.Enroll(id, probe.Perturb(rng, 0.05))
				id++
			}
			for ; id <= 11; id++ {
				f := NewRandomFeature(rng, dim)
				g.Enroll(id, f)
				g.Enroll(id, f.Perturb(rng, 0.2)) // prototype is now a normalized mean
			}
			b := g.blocks[0]
			for row := range b.ids {
				p := b.feature(row)
				if got, want := Cosine(probe, p), refCosine(probe, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d: Cosine %v, reference %v", dim, got, want)
				}
			}
			cuts := []float64{math.Inf(-1), 0.75}
			if plant {
				cuts = append(cuts, refCosine(probe, b.feature(0)))
			}
			for _, cut := range cuts {
				wantRow, wantScore := scanTop1(b, probe, cut)
				row, score := b.top1(probe, norm(probe), cut)
				if row != wantRow || math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Fatalf("dim %d plant %v cut %v: top1 = (row %d, %v), best reference cosine (row %d, %v)", dim, plant, cut, row, score, wantRow, wantScore)
				}
			}
		}
	}
}

// TestPrunedTop1MatchesFullScan drives the pruned kernel where its bound is
// tightest or its cached columns could be stale, and compares (row, score
// bits) with the unpruned scan at cuts placed on, one ulp beside and 1e-12
// beside each top score:
//   - tight: every row's tail is the probe's tail scaled by a power of two, so
//     Cauchy–Schwarz holds with equality and the bound lands on the score;
//   - twins: one prototype under two IDs, the higher ID in the earlier row;
//   - zero: zero-norm rows and probes;
//   - expired: head-only rows swap-deleted by expiry, so tail-heavy rows move
//     into their slots;
//   - updated: head-only prototypes turned tail-heavy by running-mean updates.
func TestPrunedTop1MatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const rows = 13 // three four-row groups and a remainder
	// split returns a random feature whose head (components below dim/2) is
	// scaled by h and tail by tl.
	split := func(dim int, h, tl float32) Feature {
		f := NewRandomFeature(rng, dim)
		for i := range f {
			if i < dim/2 {
				f[i] *= h
			} else {
				f[i] *= tl
			}
		}
		return f
	}
	recipes := []struct {
		name  string
		build func(dim int, probe Feature) *block
	}{
		{"tight", func(dim int, probe Feature) *block {
			g := NewGallery()
			for id := uint64(1); id <= rows; id++ {
				f := NewRandomFeature(rng, dim)
				scale := float32(math.Ldexp(1, rng.Intn(5)-2))
				for i := dim / 2; i < dim; i++ {
					f[i] = probe[i] * scale
				}
				g.Enroll(id, f)
			}
			return g.blocks[0]
		}},
		{"twins", func(dim int, probe Feature) *block {
			g := NewGallery()
			for id := uint64(2 * rows); id > 0; id -= 2 {
				f := probe.Perturb(rng, rng.Float64()*0.3)
				g.Enroll(id, f)
				g.Enroll(id-1, f)
			}
			return g.blocks[0]
		}},
		{"zero", func(dim int, probe Feature) *block {
			g := NewGallery()
			for id := uint64(1); id <= rows; id++ {
				f := make(Feature, dim)
				if id%3 == 0 {
					f = probe.Perturb(rng, 0.2)
				}
				g.Enroll(id, f)
			}
			return g.blocks[0]
		}},
		{"expired", func(dim int, probe Feature) *block {
			g := NewGallery()
			for id := uint64(1); id <= 3*rows; id++ {
				if id%3 == 0 {
					g.enroll(id, split(dim, 0.1, 1), 2)
				} else {
					g.enroll(id, split(dim, 1, 0), 1)
				}
			}
			g.expire(2)
			return g.blocks[0]
		}},
		{"updated", func(dim int, probe Feature) *block {
			g := NewGallery()
			for id := uint64(1); id <= rows; id++ {
				g.Enroll(id, split(dim, 1, 0))
				tail := split(dim, 0, 1)
				for j := 0; j < 5; j++ {
					g.Enroll(id, tail)
				}
			}
			return g.blocks[0]
		}},
	}
	for _, r := range recipes {
		for _, dim := range []int{1, 2, 3, 7, 32, 33} {
			for trial := 0; trial < 10; trial++ {
				probe := NewRandomFeature(rng, dim)
				b := r.build(dim, probe)
				probes := []Feature{probe, make(Feature, dim)}
				for row := range b.ids {
					probes = append(probes, b.feature(row), b.feature(row).Perturb(rng, 0.01))
				}
				for _, probe := range probes {
					cuts := []float64{math.Inf(-1), 0.75}
					for row := range b.ids {
						s := refCosine(probe, b.feature(row))
						cuts = append(cuts, s, math.Nextafter(s, 2), math.Nextafter(s, -2), s+1e-12, s-1e-12)
					}
					for _, cut := range cuts {
						row, score := b.top1(probe, norm(probe), cut)
						wantRow, wantScore := scanTop1(b, probe, cut)
						if row != wantRow || math.Float64bits(score) != math.Float64bits(wantScore) {
							t.Fatalf("%s dim %d trial %d cut %v: top1 = (row %d, %v), full scan (row %d, %v)", r.name, dim, trial, cut, row, score, wantRow, wantScore)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentAssociateMintsOnce is the regression for match, enrol and
// mint running as three separately locked steps: goroutines associating the
// same unseen probe each missed and each founded an identity.
func TestConcurrentAssociateMintsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := NewAssociator(0.75)
	for i := 0; i < 500; i++ { // a scan long enough for the goroutines to overlap
		a.Associate(NewRandomFeature(rng, 64))
	}
	for round := 0; round < 20; round++ {
		before := a.Gallery().Len()
		probe := NewRandomFeature(rng, 64)
		const n = 8
		ids := make([]uint64, n)
		matched := make([]bool, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				ids[i], matched[i] = a.Associate(probe)
			}(i)
		}
		close(start)
		wg.Wait()
		founders := 0
		for i := range ids {
			if ids[i] != ids[0] {
				t.Fatalf("round %d: one probe became identities %d and %d", round, ids[0], ids[i])
			}
			if !matched[i] {
				founders++
			}
		}
		if founders != 1 || a.Gallery().Len() != before+1 {
			t.Fatalf("round %d: %d founders, gallery grew by %d; want 1 and 1", round, founders, a.Gallery().Len()-before)
		}
	}
}

// TestAssociatorExpiry drives a churning population far past the retention
// window: the gallery must plateau at what one window holds, identities still
// being seen must keep their IDs, and the outcome must not depend on how the
// stream is cut into batches.
func TestAssociatorExpiry(t *testing.T) {
	const (
		retention = 100 * time.Second
		perTick   = 5   // identities alive at a time
		lifetime  = 20  // ticks an identity is seen for
		ticks     = 600 // 6 retention windows
	)
	t0 := time.Unix(1_700_000_000, 0)
	run := func(cut int) (ids []uint64, peak, expired int) {
		rng := rand.New(rand.NewSource(9))
		a := NewAssociator(0.75)
		resident := NewRandomFeature(rng, 32) // seen every tick, must never expire
		a.Gallery().Enroll(1<<40, NewRandomFeature(rng, 32))
		var alive []Feature
		var batch []Probe
		for tick := 0; tick < ticks; tick++ {
			if tick%lifetime == 0 {
				alive = alive[:0]
				for i := 0; i < perTick; i++ {
					alive = append(alive, NewRandomFeature(rng, 32))
				}
			}
			at := t0.Add(time.Duration(tick) * time.Second)
			batch = append(batch, Probe{resident.Perturb(rng, 0.02), at})
			for _, f := range alive {
				batch = append(batch, Probe{f.Perturb(rng, 0.02), at})
			}
			if (tick+1)%cut == 0 || tick == ticks-1 {
				var n int
				ids, n = a.AssociateBatch(batch, retention, ids)
				expired += n
				batch = batch[:0]
				peak = max(peak, a.Gallery().Len())
			}
		}
		if _, err := a.Gallery().Match(resident, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := a.Gallery().index[1<<40]; !ok {
			t.Errorf("identity enrolled without an observation time was expired")
		}
		return ids, peak, expired
	}
	ids, peak, expired := run(1)
	// One window holds the identities of retention/lifetime generations, plus
	// the generation being seen, the resident and the pinned identity.
	bound := perTick*(int(retention/time.Second)/lifetime+2) + 2
	if peak > bound {
		t.Errorf("gallery peaked at %d identities, want <= %d (%d founded in all)", peak, bound, perTick*ticks/lifetime)
	}
	if expired < perTick*(ticks/lifetime)-bound {
		t.Errorf("expired %d identities, want most of the %d founded", expired, perTick*ticks/lifetime)
	}
	for i := 0; i < len(ids); i += perTick + 1 {
		if ids[i] != ids[0] {
			t.Fatalf("resident identity changed from %d to %d at tick %d", ids[0], ids[i], i/(perTick+1))
		}
	}
	for _, cut := range []int{7, 150} {
		other, _, otherExpired := run(cut)
		if otherExpired != expired || len(other) != len(ids) {
			t.Fatalf("cut %d: expired %d of %d probes, want %d of %d", cut, otherExpired, len(other), expired, len(ids))
		}
		for i := range ids {
			if other[i] != ids[i] {
				t.Fatalf("cut %d: probe %d became identity %d, want %d", cut, i, other[i], ids[i])
			}
		}
	}
}

// TestAssociateMatchPathAllocs holds the hot path at zero allocations: a
// re-sighting scans, picks and re-enrols in place.
func TestAssociateMatchPathAllocs(t *testing.T) {
	a := NewAssociator(0.75)
	probes := benchProbes(323, 32, 0.02, a.Associate)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, matched := a.Associate(probes[i%len(probes)]); !matched {
			t.Fatal("probe did not match")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Associate match path: %v allocs/op, want 0", allocs)
	}
}
