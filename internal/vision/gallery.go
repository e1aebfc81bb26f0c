package vision

import (
	"errors"
	"math"
	"sync"
	"time"
)

// Match is one re-identification candidate: a gallery identity and its
// similarity to the probe.
type Match struct {
	ID    uint64
	Score float64 // cosine similarity in [-1, 1]
}

// ranksBefore is the result order of Match and the winner rule of Associate:
// higher score first, ties to the lower ID. IDs are unique, so the order is
// total and no answer depends on where a row happens to be stored.
func (m Match) ranksBefore(o Match) bool {
	if m.Score != o.Score {
		return m.Score > o.Score
	}
	return m.ID < o.ID
}

// Gallery is a set of known identities with reference features, supporting
// rank-k re-identification queries. Multiple reference features per identity
// are averaged into a prototype (the standard "centroid gallery" scheme).
// Safe for concurrent use.
//
// Storage is a structure of arrays, one block per feature dimension, so a
// probe is scored by streaming over one contiguous prototype matrix with each
// row's norm already known (DESIGN.md §Identity association).
type Gallery struct {
	mu     sync.Mutex
	blocks []*block          // one per enrolled feature dimension
	index  map[uint64]rowRef // identity → its row
	// oldest is a lower bound on the earliest last-seen time of any row, so
	// expiry sweeps only when something can be older than the cutoff.
	oldest int64
}

// block holds every identity of one feature dimension. Row r is ids[r],
// counts[r], seen[r], norms[r], tails[r] and protos[r*dim : (r+1)*dim].
type block struct {
	dim    int
	ids    []uint64
	counts []int     // features averaged into the prototype
	seen   []int64   // last observation time (Unix ns), or pinned
	norms  []float64 // prototype's Euclidean norm, refreshed by enrollment only
	tails  []float64 // norm of the prototype's components dim/2 onwards, refreshed with norms
	// protos holds float32 prototypes widened to float64 (every float32 is
	// exactly a float64), so the kernel converts only the probe.
	protos []float64
}

type rowRef struct {
	b   *block
	row int
}

// pinned is the last-seen time of an identity enrolled or matched without an
// observation time (Gallery.Enroll, Associator.Associate): it never expires.
const pinned = math.MaxInt64

// ErrEmptyGallery is returned by Match when no identities are enrolled.
var ErrEmptyGallery = errors.New("vision: empty gallery")

// NewGallery returns an empty gallery.
func NewGallery() *Gallery {
	return &Gallery{index: make(map[uint64]rowRef), oldest: pinned}
}

func (b *block) proto(row int) []float64 {
	return b.protos[row*b.dim : (row+1)*b.dim : (row+1)*b.dim]
}

// blockOf returns the block holding dim-dimensional identities, nil if none
// was ever enrolled.
func (g *Gallery) blockOf(dim int) *block {
	for _, b := range g.blocks {
		if b.dim == dim {
			return b
		}
	}
	return nil
}

// Enroll adds a reference feature for an identity, updating its prototype as
// the running mean of enrolled features (re-normalized).
func (g *Gallery) Enroll(id uint64, f Feature) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.enroll(id, f, pinned)
}

// enroll is Enroll with the observation time at. Caller holds g.mu.
func (g *Gallery) enroll(id uint64, f Feature, at int64) {
	if ref, ok := g.index[id]; ok {
		ref.b.update(ref.row, f, at)
		return
	}
	b := g.blockOf(len(f))
	if b == nil {
		b = &block{dim: len(f)}
		g.blocks = append(g.blocks, b)
	}
	g.index[id] = rowRef{b, len(b.ids)}
	b.ids = append(b.ids, id)
	b.counts = append(b.counts, 1)
	b.seen = append(b.seen, at)
	b.norms = append(b.norms, norm(f))
	b.tails = append(b.tails, norm(f[len(f)/2:]))
	for _, v := range f {
		b.protos = append(b.protos, float64(v))
	}
	g.oldest = min(g.oldest, at)
}

// update folds f into row's running-mean prototype in place and refreshes the
// cached norms. The mean is taken in float32 and stored rounded to float32,
// as a float32 prototype would hold it. A feature of another dimension
// updates the components it has.
func (b *block) update(row int, f Feature, at int64) {
	proto := b.proto(row)
	n := float32(b.counts[row])
	for i := range proto {
		if i < len(f) {
			proto[i] = float64((float32(proto[i])*n + f[i]) / (n + 1))
		}
	}
	normalize(proto)
	b.norms[row] = norm(proto)
	b.tails[row] = norm(proto[b.dim/2:])
	b.counts[row]++
	b.seen[row] = max(b.seen[row], at)
}

// removeRow deletes one row by moving the block's last row into its place.
func (g *Gallery) removeRow(b *block, row int) {
	last := len(b.ids) - 1
	delete(g.index, b.ids[row])
	if row != last {
		b.ids[row], b.counts[row], b.seen[row] = b.ids[last], b.counts[last], b.seen[last]
		b.norms[row], b.tails[row] = b.norms[last], b.tails[last]
		copy(b.proto(row), b.proto(last))
		g.index[b.ids[row]] = rowRef{b, row}
	}
	b.ids, b.counts, b.seen = b.ids[:last], b.counts[:last], b.seen[:last]
	b.norms, b.tails = b.norms[:last], b.tails[:last]
	b.protos = b.protos[:last*b.dim]
}

// expire drops every identity last seen before cutoff and returns how many.
// Caller holds g.mu.
func (g *Gallery) expire(cutoff int64) int {
	if g.oldest >= cutoff {
		return 0
	}
	dropped := 0
	g.oldest = pinned
	for _, b := range g.blocks {
		// Backwards, so the row removeRow moves into a hole was already kept.
		for row := len(b.ids) - 1; row >= 0; row-- {
			if b.seen[row] < cutoff {
				g.removeRow(b, row)
				dropped++
			} else {
				g.oldest = min(g.oldest, b.seen[row])
			}
		}
	}
	return dropped
}

// Len returns the number of enrolled identities.
func (g *Gallery) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.index)
}

// Match returns the top-k identities by similarity to the probe, descending,
// ties broken by ascending ID. Identities of another dimension score -1, as
// Cosine scores them.
func (g *Gallery) Match(probe Feature, k int) ([]Match, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.index) == 0 {
		return nil, ErrEmptyGallery
	}
	if k <= 0 {
		return nil, nil
	}
	// top is a heap of the k best so far with the worst of them at the root.
	top := make([]Match, 0, min(k, len(g.index)))
	pnorm := norm(probe)
	for _, b := range g.blocks {
		sameDim := b.dim == len(probe) && b.dim > 0
		for row, id := range b.ids {
			m := Match{ID: id, Score: -1}
			if sameDim {
				m.Score = similarity(dot(0, probe, b.proto(row)), pnorm, b.norms[row])
			}
			if len(top) < k {
				top = append(top, m)
				siftUp(top, len(top)-1)
			} else if m.ranksBefore(top[0]) {
				top[0] = m
				siftDown(top, 0)
			}
		}
	}
	// Heapsort: moving the worst to the shrinking tail leaves best first.
	for n := len(top) - 1; n > 0; n-- {
		top[0], top[n] = top[n], top[0]
		siftDown(top[:n], 0)
	}
	return top, nil
}

func siftUp(h []Match, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[parent].ranksBefore(h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []Match, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[worst].ranksBefore(h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[worst], h[i] = h[i], h[worst]
		i = worst
	}
}

// top1 returns the row most similar to the probe among those scoring at
// least cut (ties to the lower ID) and its score, or row -1 when none does.
// It is the association kernel: one pass, four rows at a time so four
// independent float64 chains keep the adder busy. Each row's chain still runs
// in index order, which is what keeps its score bit-identical to
// Cosine(probe, prototype).
//
// The chains pause after the first half of the components. By Cauchy–Schwarz
// the second half adds at most |probe tail|·|row tail| to a row's dot
// product, so when even that cannot lift any of the four rows to the cut
// they are skipped; otherwise their chains run on to the end. The cut rises
// to each new best score. The margin in reaches is orders of magnitude above
// float64's rounding error, so a skipped row scores strictly below the cut:
// it can neither win nor tie.
func (b *block) top1(probe Feature, pnorm, cut float64) (int, float64) {
	dim, half := b.dim, b.dim/2
	ptail := norm(probe[half:])
	best, bestScore := -1, cut
	// reaches is the bound test negated, so a NaN bound (a zero norm against
	// an infinite cut) never skips a row.
	reaches := func(row int, d float64) bool {
		scale := pnorm * b.norms[row]
		return !(d+ptail*b.tails[row] < bestScore*scale-1e-9*(scale+1))
	}
	consider := func(row int, d float64) {
		s := similarity(d, pnorm, b.norms[row])
		if s > bestScore || (s == bestScore && (best < 0 || b.ids[row] < b.ids[best])) {
			best, bestScore = row, s
		}
	}
	n := len(b.ids)
	row := 0
	for ; row+4 <= n; row += 4 {
		rows := b.protos[row*dim : (row+4)*dim]
		d0, d1, d2, d3 := dot4(probe[:half], rows, dim, 0, 0, 0, 0)
		if !reaches(row, d0) && !reaches(row+1, d1) && !reaches(row+2, d2) && !reaches(row+3, d3) {
			continue
		}
		d0, d1, d2, d3 = dot4(probe[half:], rows[half:], dim, d0, d1, d2, d3)
		consider(row, d0)
		consider(row+1, d1)
		consider(row+2, d2)
		consider(row+3, d3)
	}
	for ; row < n; row++ {
		proto := b.proto(row)
		if d := dot(0, probe[:half], proto); reaches(row, d) {
			consider(row, dot(d, probe[half:], proto[half:]))
		}
	}
	return best, bestScore
}

// Associator performs online identity association for tracking: a probe
// either matches an enrolled identity above the threshold or founds a new
// identity. This is how cross-camera tracking decides whether a detection at
// a neighboring camera is "the same target". Safe for concurrent use: match,
// enrollment and ID minting are one critical section under the gallery's
// mutex, so concurrent sightings of one unseen target found one identity.
type Associator struct {
	gallery   *Gallery
	threshold float64

	// Guarded by gallery.mu.
	nextID uint64
	latest int64 // newest observation time associated so far
}

// Probe is one timed association request.
type Probe struct {
	Feature Feature
	At      time.Time // observation time
}

// NewAssociator returns an associator over its own gallery with the given
// acceptance threshold (cosine similarity).
func NewAssociator(threshold float64) *Associator {
	return &Associator{gallery: NewGallery(), threshold: threshold, nextID: 1, latest: math.MinInt64}
}

// Gallery exposes the underlying gallery (for enrollment of known targets).
func (a *Associator) Gallery() *Gallery { return a.gallery }

// Associate matches the probe against known identities; on success it
// re-enrolls the probe (online adaptation) and returns (id, true). Otherwise
// it mints a new identity and returns (newID, false). The probe carries no
// observation time, so the identity it touches never expires.
func (a *Associator) Associate(probe Feature) (uint64, bool) {
	a.gallery.mu.Lock()
	defer a.gallery.mu.Unlock()
	return a.associate(probe, pinned)
}

// AssociateBatch associates the probes in order under one lock acquisition
// and appends their identities to ids. With retention > 0 an identity last
// seen more than retention before the newest observation time so far is
// dropped first — the index has already evicted its records, so the ID refers
// to nothing — and the second result counts those. Expiry is decided probe by
// probe, so identities do not depend on how a stream is cut into batches.
func (a *Associator) AssociateBatch(probes []Probe, retention time.Duration, ids []uint64) ([]uint64, int) {
	g := a.gallery
	g.mu.Lock()
	defer g.mu.Unlock()
	expired := 0
	for _, p := range probes {
		at := p.At.UnixNano()
		a.latest = max(a.latest, at)
		if retention > 0 {
			expired += g.expire(a.latest - int64(retention))
		}
		id, _ := a.associate(p.Feature, at)
		ids = append(ids, id)
	}
	return ids, expired
}

// associate is the critical section behind Associate. Caller holds the
// gallery mutex.
func (a *Associator) associate(probe Feature, at int64) (uint64, bool) {
	if b := a.gallery.blockOf(len(probe)); b != nil {
		if row, _ := b.top1(probe, norm(probe), a.threshold); row >= 0 {
			b.update(row, probe, at)
			return b.ids[row], true
		}
	}
	id := a.nextID
	a.nextID++
	a.gallery.enroll(id, probe, at)
	return id, false
}
