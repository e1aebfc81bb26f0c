package vision

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stcam/internal/camera"
	"stcam/internal/geo"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func TestFeatureUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewRandomFeature(rng, 32)
	if len(f) != 32 {
		t.Fatalf("dim = %d", len(f))
	}
	var sum float64
	for _, v := range f {
		sum += float64(v) * float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("norm² = %v, want 1", sum)
	}
	if got := NewRandomFeature(rng, 0); len(got) != DefaultFeatureDim {
		t.Errorf("default dim = %d", len(got))
	}
}

func TestCosine(t *testing.T) {
	a := Feature{1, 0, 0}
	b := Feature{0, 1, 0}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-6 {
		t.Errorf("self cosine = %v", got)
	}
	if got := Cosine(a, b); math.Abs(got) > 1e-6 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	neg := Feature{-1, 0, 0}
	if got := Cosine(a, neg); math.Abs(got+1) > 1e-6 {
		t.Errorf("opposite cosine = %v", got)
	}
	// Fail-closed cases.
	if Cosine(nil, a) != -1 || Cosine(a, Feature{1, 0}) != -1 {
		t.Error("dimension mismatch should score -1")
	}
	if Cosine(Feature{0, 0, 0}, a) != -1 {
		t.Error("zero vector should score -1")
	}
}

func TestPerturbPreservesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := NewRandomFeature(rng, 64)
	// Expected cosine ≈ 1/√(1+σ²·dim) ≈ 0.93 for σ=0.05, dim=64.
	light := f.Perturb(rng, 0.05)
	if got := Cosine(f, light); got < 0.85 {
		t.Errorf("light perturbation cosine = %v, want > 0.85", got)
	}
	heavy := f.Perturb(rng, 10)
	if got := Cosine(f, heavy); got > 0.5 {
		t.Errorf("heavy perturbation cosine = %v, want <= 0.5", got)
	}
	// Distinct identities are near-orthogonal in high dim.
	other := NewRandomFeature(rng, 64)
	if got := Cosine(f, other); math.Abs(got) > 0.5 {
		t.Errorf("distinct identities cosine = %v", got)
	}
}

func TestDetectorObserve(t *testing.T) {
	cam := camera.New(1, geo.Pt(0, 0), 0, math.Pi/4, 100)
	rng := rand.New(rand.NewSource(3))
	feat := NewRandomFeature(rng, 16)

	// Noiseless detector: exact position, same feature, no drops.
	d := NewDetector(DetectorConfig{Seed: 1})
	det, ok := d.Observe(cam, 42, geo.Pt(50, 0), feat, t0)
	if !ok {
		t.Fatal("visible object not detected")
	}
	if det.Pos != geo.Pt(50, 0) {
		t.Errorf("noiseless position = %v", det.Pos)
	}
	if det.TrueID != 42 || det.Camera != 1 || !det.Time.Equal(t0) {
		t.Errorf("detection metadata wrong: %+v", det)
	}
	if Cosine(det.Feature, feat) < 0.999 {
		t.Error("noiseless feature altered")
	}
	if det.ObsID == 0 {
		t.Error("ObsID not assigned")
	}
	// Mutating the returned feature must not alias the input.
	det.Feature[0] = 99
	if feat[0] == 99 {
		t.Error("detection feature aliases ground-truth feature")
	}

	// Invisible object: no detection.
	if _, ok := d.Observe(cam, 42, geo.Pt(-50, 0), feat, t0); ok {
		t.Error("invisible object detected")
	}
}

func TestDetectorFalseNegatives(t *testing.T) {
	cam := camera.New(1, geo.Pt(0, 0), 0, math.Pi, 100)
	rng := rand.New(rand.NewSource(4))
	feat := NewRandomFeature(rng, 8)
	d := NewDetector(DetectorConfig{FalseNegRate: 0.3, Seed: 2})
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if _, ok := d.Observe(cam, 1, geo.Pt(10, 10), feat, t0); ok {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.65 || rate > 0.75 {
		t.Errorf("hit rate = %v, want ≈ 0.7", rate)
	}
}

func TestDetectorPositionNoise(t *testing.T) {
	cam := camera.New(1, geo.Pt(0, 0), 0, math.Pi, 1000)
	rng := rand.New(rand.NewSource(5))
	feat := NewRandomFeature(rng, 8)
	d := NewDetector(DetectorConfig{PosNoise: 2, Seed: 3})
	truePos := geo.Pt(100, 100)
	var sumErr float64
	const trials = 1000
	for i := 0; i < trials; i++ {
		det, ok := d.Observe(cam, 1, truePos, feat, t0)
		if !ok {
			t.Fatal("drop with zero FN rate")
		}
		sumErr += det.Pos.Dist(truePos)
	}
	mean := sumErr / trials
	// Mean of |N(0,2)²| distance ≈ 2·√(π/2) ≈ 2.5.
	if mean < 1.5 || mean > 3.5 {
		t.Errorf("mean position error = %v, want ≈ 2.5", mean)
	}
}

func TestDetectorFalsePositives(t *testing.T) {
	cam := camera.New(1, geo.Pt(0, 0), 0, math.Pi/3, 50)
	d := NewDetector(DetectorConfig{FalsePosRate: 0.5, Seed: 6})
	total := 0
	const frames = 2000
	for i := 0; i < frames; i++ {
		fps := d.FalsePositives(cam, t0)
		for _, fp := range fps {
			if fp.TrueID != 0 {
				t.Fatal("false positive carries a true ID")
			}
			if !cam.Sees(fp.Pos) {
				t.Fatalf("false positive at %v outside FOV", fp.Pos)
			}
			if len(fp.Feature) != DefaultFeatureDim {
				t.Fatal("false positive missing feature")
			}
		}
		total += len(fps)
	}
	rate := float64(total) / frames
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("false-positive rate = %v, want ≈ 0.5", rate)
	}
	// Zero rate produces nothing.
	d0 := NewDetector(DetectorConfig{Seed: 7})
	if fps := d0.FalsePositives(cam, t0); fps != nil {
		t.Errorf("zero-rate detector produced %v", fps)
	}
}

func TestObsIDsUnique(t *testing.T) {
	cam := camera.New(1, geo.Pt(0, 0), 0, math.Pi, 100)
	rng := rand.New(rand.NewSource(8))
	feat := NewRandomFeature(rng, 8)
	d := NewDetector(DetectorConfig{FalsePosRate: 0.2, Seed: 9})
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		if det, ok := d.Observe(cam, 1, geo.Pt(5, 5), feat, t0); ok {
			if seen[det.ObsID] {
				t.Fatalf("duplicate ObsID %d", det.ObsID)
			}
			seen[det.ObsID] = true
		}
		for _, fp := range d.FalsePositives(cam, t0) {
			if seen[fp.ObsID] {
				t.Fatalf("duplicate ObsID %d (fp)", fp.ObsID)
			}
			seen[fp.ObsID] = true
		}
	}
}

func TestGalleryMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGallery()
	if _, err := g.Match(NewRandomFeature(rng, 16), 1); err != ErrEmptyGallery {
		t.Fatalf("match on empty gallery: %v", err)
	}
	ids := make(map[uint64]Feature)
	for id := uint64(1); id <= 20; id++ {
		f := NewRandomFeature(rng, 64)
		ids[id] = f
		g.Enroll(id, f)
	}
	if g.Len() != 20 {
		t.Fatalf("Len = %d", g.Len())
	}
	// Probe with a noisy view of identity 7: rank-1 must be 7.
	probe := ids[7].Perturb(rng, 0.1)
	matches, err := g.Match(probe, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("got %d matches", len(matches))
	}
	if matches[0].ID != 7 {
		t.Errorf("rank-1 = %d, want 7 (matches %v)", matches[0].ID, matches)
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Fatal("matches not sorted descending")
		}
	}
	// k larger than the gallery.
	all, _ := g.Match(probe, 100)
	if len(all) != 20 {
		t.Errorf("k=100 returned %d", len(all))
	}
	// k=0 returns nothing.
	if none, _ := g.Match(probe, 0); len(none) != 0 {
		t.Errorf("k=0 returned %v", none)
	}
}

func TestGalleryEnrollAveraging(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGallery()
	base := NewRandomFeature(rng, 64)
	// A single noisy view at σ=0.3, dim=64 has expected cosine ≈ 0.38 to the
	// base; averaging 10 views shrinks the noise by √10, so the prototype
	// must score clearly higher than a lone view.
	single := Cosine(base, base.Perturb(rng, 0.3))
	for i := 0; i < 10; i++ {
		g.Enroll(1, base.Perturb(rng, 0.3))
	}
	m, err := g.Match(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Score < 0.6 {
		t.Errorf("averaged prototype similarity = %v, want > 0.6", m[0].Score)
	}
	if m[0].Score <= single {
		t.Errorf("averaging did not help: proto=%v single=%v", m[0].Score, single)
	}
}

func TestAssociator(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewAssociator(0.7)
	f1 := NewRandomFeature(rng, 64)
	id1, matched := a.Associate(f1)
	if matched {
		t.Fatal("first probe matched an empty gallery")
	}
	// A noisy re-sighting of the same object associates to the same ID.
	id1b, matched := a.Associate(f1.Perturb(rng, 0.05))
	if !matched || id1b != id1 {
		t.Errorf("re-sighting: id=%d matched=%v, want id=%d matched=true", id1b, matched, id1)
	}
	// A distinct object founds a new identity.
	f2 := NewRandomFeature(rng, 64)
	id2, matched := a.Associate(f2)
	if matched || id2 == id1 {
		t.Errorf("distinct object: id=%d matched=%v", id2, matched)
	}
}

// TestReidAccuracyDegradesWithNoise encodes the shape expectation behind
// experiment R4: rank-1 accuracy falls as feature noise grows.
func TestReidAccuracyDegradesWithNoise(t *testing.T) {
	rank1 := func(noise float64) float64 {
		rng := rand.New(rand.NewSource(99))
		g := NewGallery()
		feats := make(map[uint64]Feature)
		for id := uint64(1); id <= 50; id++ {
			f := NewRandomFeature(rng, 64)
			feats[id] = f
			g.Enroll(id, f)
		}
		hits := 0
		const probes = 200
		for i := 0; i < probes; i++ {
			id := uint64(1 + rng.Intn(50))
			m, err := g.Match(feats[id].Perturb(rng, noise), 1)
			if err != nil {
				t.Fatal(err)
			}
			if m[0].ID == id {
				hits++
			}
		}
		return float64(hits) / probes
	}
	clean := rank1(0.02)
	noisy := rank1(1.0)
	if clean < 0.95 {
		t.Errorf("clean rank-1 = %v, want >= 0.95", clean)
	}
	if noisy >= clean {
		t.Errorf("rank-1 did not degrade with noise: clean=%v noisy=%v", clean, noisy)
	}
}
