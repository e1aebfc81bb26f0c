package vision

import (
	"math"
	"sort"
)

// refGallery and refAssociator are the map-and-sort implementation the dense
// gallery replaced, kept as the oracle of the differential tests: every score
// recomputes both norms through refCosine, every Match sorts the whole
// gallery. Single-goroutine only.
type refGallery struct {
	protos map[uint64]Feature
	counts map[uint64]int
}

func newRefGallery() *refGallery {
	return &refGallery{protos: make(map[uint64]Feature), counts: make(map[uint64]int)}
}

func refCosine(a, b Feature) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return -1
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return -1
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func refNormalize(f Feature) {
	var sum float64
	for _, v := range f {
		sum += float64(v) * float64(v)
	}
	n := math.Sqrt(sum)
	if n == 0 {
		return
	}
	for i := range f {
		f[i] = float32(float64(f[i]) / n)
	}
}

func (g *refGallery) Enroll(id uint64, f Feature) {
	proto, ok := g.protos[id]
	if !ok {
		g.protos[id] = f.Clone()
		g.counts[id] = 1
		return
	}
	n := float32(g.counts[id])
	for i := range proto {
		if i < len(f) {
			proto[i] = (proto[i]*n + f[i]) / (n + 1)
		}
	}
	refNormalize(proto)
	g.counts[id]++
}

func (g *refGallery) Remove(id uint64) bool {
	if _, ok := g.protos[id]; !ok {
		return false
	}
	delete(g.protos, id)
	delete(g.counts, id)
	return true
}

func (g *refGallery) Len() int { return len(g.protos) }

func (g *refGallery) Match(probe Feature, k int) ([]Match, error) {
	if len(g.protos) == 0 {
		return nil, ErrEmptyGallery
	}
	if k <= 0 {
		return nil, nil
	}
	matches := make([]Match, 0, len(g.protos))
	for id, proto := range g.protos {
		matches = append(matches, Match{ID: id, Score: refCosine(probe, proto)})
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	if k < len(matches) {
		matches = matches[:k]
	}
	return matches, nil
}

type refAssociator struct {
	gallery   *refGallery
	threshold float64
	nextID    uint64
}

func newRefAssociator(threshold float64) *refAssociator {
	return &refAssociator{gallery: newRefGallery(), threshold: threshold, nextID: 1}
}

func (a *refAssociator) Associate(probe Feature) (uint64, bool) {
	matches, err := a.gallery.Match(probe, 1)
	if err == nil && len(matches) == 1 && matches[0].Score >= a.threshold {
		a.gallery.Enroll(matches[0].ID, probe)
		return matches[0].ID, true
	}
	id := a.nextID
	a.nextID++
	a.gallery.Enroll(id, probe)
	return id, false
}
