package bench

import (
	"math"
	"math/rand"
	"sort"

	"stcam/internal/vision"
)

// R23 prices one identity association on the match path — the step every
// featured detection takes inside the worker's ingest critical section —
// against the association it replaced: score every prototype with
// vision.Cosine (both norms recomputed), sort the whole candidate list, take
// the head. Both gated columns are machine-robust: allocs/op is a property of
// the code path, and the speedup is a ratio of two loops timed back to back
// over the same gallery and probes.

// r23SortTop1 is the baseline: the full-sort argmax over per-identity slices.
func r23SortTop1(ids []uint64, protos []vision.Feature, probe vision.Feature) vision.Match {
	matches := make([]vision.Match, 0, len(ids))
	for i, id := range ids {
		matches = append(matches, vision.Match{ID: id, Score: vision.Cosine(probe, protos[i])})
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	return matches[0]
}

// R23Association reports µs per association for the sort baseline and the
// dense kernel at the end-to-end benchmark's per-worker gallery (323
// identities × 32-d) and a larger shape. Scale shrinks the iteration count,
// never the shapes.
func R23Association(s Scale) *Table {
	t := &Table{
		ID:     "R23",
		Title:  "Identity association: dense top-1 kernel vs full-sort baseline",
		Notes:  "match path (every probe re-sights an enrolled identity); baseline = Cosine per prototype + sort.Slice over the gallery; dense allocs/op and speedup× are CI-gated",
		Header: []string{"gallery", "dim", "sort µs/op", "dense µs/op", "speedup×", "dense allocs/op"},
	}
	for _, c := range []struct{ gallery, dim int }{{323, 32}, {1000, 64}} {
		rng := rand.New(rand.NewSource(23))
		a := vision.NewAssociator(0.75)
		ids := make([]uint64, c.gallery)
		protos := make([]vision.Feature, c.gallery)
		probes := make([]vision.Feature, c.gallery)
		for i := range protos {
			protos[i] = vision.NewRandomFeature(rng, c.dim)
			ids[i], _ = a.Associate(protos[i])
			probes[i] = protos[i].Perturb(rng, 0.02)
		}
		iters := max(s.n(4_000_000/c.gallery), 200)
		next := 0
		probe := func() vision.Feature {
			next++
			return probes[next%len(probes)]
		}
		// Fastest of three alternating passes per side: a scheduler stall in
		// one short loop must not read as a lost speedup.
		base, dense := math.Inf(1), math.Inf(1) // ns/op
		allocs := 0.0
		for pass := 0; pass < 3; pass++ {
			b, _ := r20Measure(iters, func() error {
				r23SortTop1(ids, protos, probe())
				return nil
			})
			d, _ := r20Measure(iters, func() error {
				if _, matched := a.Associate(probe()); !matched {
					panic("bench: R23 probe left the match path")
				}
				return nil
			})
			base, dense = math.Min(base, b.nsPerOp), math.Min(dense, d.nsPerOp)
			allocs = math.Max(allocs, d.allocsPerOp)
		}
		t.AddRow(c.gallery, c.dim, base/1e3, dense/1e3, base/dense, allocs)
	}
	return t
}
