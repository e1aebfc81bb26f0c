package vision

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkCosine64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewRandomFeature(rng, 64)
	y := NewRandomFeature(rng, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Cosine(x, y)
	}
}

func BenchmarkGalleryMatch1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := NewGallery()
	var probeBase Feature
	for id := uint64(1); id <= 1000; id++ {
		f := NewRandomFeature(rng, 64)
		if id == 500 {
			probeBase = f
		}
		g.Enroll(id, f)
	}
	probe := probeBase.Perturb(rng, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Match(probe, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProbes enrols g fresh identities of dimension d through associate and
// returns four re-sightings of each, perturbed by sigma: probes that match (the
// ingest steady state).
func benchProbes(g, d int, sigma float64, associate func(Feature) (uint64, bool)) []Feature {
	rng := rand.New(rand.NewSource(3))
	probes := make([]Feature, 0, 4*g)
	for i := 0; i < g; i++ {
		f := NewRandomFeature(rng, d)
		associate(f)
		for j := 0; j < 4; j++ {
			probes = append(probes, f.Perturb(rng, sigma))
		}
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return probes
}

var assocSink uint64

// BenchmarkAssociate prices one association on the match path at the
// benchmark cluster's per-worker gallery (323 × 32-d) and two larger shapes,
// at the benchmark's own feature noise (0.05), and on the miss path, where a
// probe of an unseen identity scans the gallery without ever raising the cut
// above the threshold (the minted identity is removed again, so the gallery
// keeps its size). The reference row is the map-and-sort model on the same
// probes.
func BenchmarkAssociate(b *testing.B) {
	run := func(name string, g, d int, sigma float64, associate func(Feature) (uint64, bool)) {
		b.Run(fmt.Sprintf("%s/G=%d,d=%d", name, g, d), func(b *testing.B) {
			probes := benchProbes(g, d, sigma, associate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assocSink, _ = associate(probes[i%len(probes)])
			}
		})
	}
	for _, c := range []struct{ g, d int }{{323, 32}, {1000, 64}, {5000, 128}} {
		run("dense", c.g, c.d, 0.02, NewAssociator(0.75).Associate)
	}
	run("noise0.05", 323, 32, 0.05, NewAssociator(0.75).Associate)
	b.Run("miss/G=323,d=32", func(b *testing.B) {
		a := NewAssociator(0.75)
		benchProbes(323, 32, 0, a.Associate)
		rng := rand.New(rand.NewSource(4))
		var unseen []Feature
		for len(unseen) < 1024 {
			f := NewRandomFeature(rng, 32)
			if m, _ := a.Gallery().Match(f, 1); m[0].Score < 0.75 {
				unseen = append(unseen, f)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id, matched := a.Associate(unseen[i%len(unseen)])
			if matched {
				b.Fatal("unseen probe matched")
			}
			removeIdentity(a.Gallery(), id)
		}
	})
	run("reference", 323, 32, 0.02, newRefAssociator(0.75).Associate)
}

// removeIdentity drops one identity, so a benchmark loop that mints an
// identity per probe holds the gallery at a constant size.
func removeIdentity(g *Gallery, id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ref, ok := g.index[id]; ok {
		g.removeRow(ref.b, ref.row)
	}
}
