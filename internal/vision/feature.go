// Package vision simulates the video-analytics layer of a camera network:
// object detection with configurable noise and error rates, appearance
// feature extraction, and re-identification matching against a gallery.
//
// The framework consumes detection events, not pixels, so a synthetic
// detector that reproduces the *statistics* of real analytics — positional
// error, embedding noise, false positives and false negatives — exercises
// exactly the same indexing and tracking code paths a real detector would
// (DESIGN.md §4).
package vision

import (
	"fmt"
	"math"
	"math/rand"
)

// Feature is an appearance embedding (e.g. a re-id CNN descriptor). Features
// are compared with cosine similarity; generators produce unit vectors.
type Feature []float32

// DefaultFeatureDim is the embedding dimensionality used when a config leaves
// it zero. Real re-id embeddings are 128–2048 dims; 64 keeps tests fast while
// preserving the concentration behaviour that makes matching work.
const DefaultFeatureDim = 64

// NewRandomFeature returns a random unit vector of the given dimension. Each
// distinct object identity gets one; separability of random unit vectors in
// high dimension is what stands in for a trained embedding space.
func NewRandomFeature(rng *rand.Rand, dim int) Feature {
	if dim <= 0 {
		dim = DefaultFeatureDim
	}
	f := make(Feature, dim)
	for i := range f {
		f[i] = float32(rng.NormFloat64())
	}
	normalize(f)
	return f
}

// Perturb returns a copy of f with Gaussian noise of the given standard
// deviation added per component, re-normalized. It models per-observation
// appearance variation (pose, lighting, occlusion).
func (f Feature) Perturb(rng *rand.Rand, sigma float64) Feature {
	out := make(Feature, len(f))
	for i, v := range f {
		out[i] = v + float32(rng.NormFloat64()*sigma)
	}
	normalize(out)
	return out
}

// Clone returns a copy of f.
func (f Feature) Clone() Feature {
	out := make(Feature, len(f))
	copy(out, f)
	return out
}

// norm returns the Euclidean norm, accumulated in float64 in index order —
// the order Cosine uses, so a norm computed once and cached reproduces the
// one Cosine would recompute.
func norm[T float32 | float64](f []T) float64 {
	var sum float64
	for _, v := range f {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

func normalize[T float32 | float64](f []T) {
	n := norm(f)
	if n == 0 {
		return
	}
	for i := range f {
		f[i] = T(float32(float64(f[i]) / n))
	}
}

// Cosine returns the cosine similarity between two features in [-1, 1].
// Mismatched dimensions or empty features return -1 (worst match) — a
// deliberate fail-closed choice for the matcher.
func Cosine(a, b Feature) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return -1
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	return similarity(dot, math.Sqrt(na), math.Sqrt(nb))
}

// similarity finishes a cosine from the dot product and the two norms. Every
// score in the package ends in this expression, so the gallery's cached-norm
// kernel and Cosine agree to the last bit.
func similarity(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return -1
	}
	return dot / (na * nb)
}

// dot continues the float64 dot-product chain d over two equal-length
// features, in index order.
func dot(d float64, a Feature, b []float64) float64 {
	b = b[:len(a)]
	for i, v := range a {
		d += float64(v) * b[i]
	}
	return d
}

// dot4 is dot of a against four rows of a row-major matrix with row stride
// stride, whose first row starts at rows[0]: it continues four independent
// chains, each in index order.
func dot4(a Feature, rows []float64, stride int, d0, d1, d2, d3 float64) (float64, float64, float64, float64) {
	n := len(a)
	r0, r1, r2, r3 := rows[:n], rows[stride:stride+n], rows[2*stride:2*stride+n], rows[3*stride:3*stride+n]
	for i, v := range a {
		x := float64(v)
		d0 += x * r0[i]
		d1 += x * r1[i]
		d2 += x * r2[i]
		d3 += x * r3[i]
	}
	return d0, d1, d2, d3
}

// String implements fmt.Stringer with a compact fingerprint.
func (f Feature) String() string {
	if len(f) == 0 {
		return "feature[]"
	}
	return fmt.Sprintf("feature[dim=%d %0.3f %0.3f ...]", len(f), f[0], f[1])
}
