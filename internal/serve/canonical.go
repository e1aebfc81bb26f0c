package serve

import (
	"strconv"
	"strings"

	"stcam/internal/geo"
	"stcam/internal/wire"
)

// Query canonicalization: two requests that ask the same question must map
// to the same key, so the result cache and the fan-out table can dedup them.
// Keys deliberately exclude QueryID (a per-call nonce) and normalize the
// rectangle so inverted corners compare equal. Keys are only compared for
// equality — the format just has to be injective, not parseable.

func appendCanonF64(b *strings.Builder, v float64) {
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte(',')
}

func appendCanonRect(b *strings.Builder, r geo.Rect) {
	minX, maxX := r.Min.X, r.Max.X
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	minY, maxY := r.Min.Y, r.Max.Y
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	appendCanonF64(b, minX)
	appendCanonF64(b, minY)
	appendCanonF64(b, maxX)
	appendCanonF64(b, maxY)
}

func appendCanonWindow(b *strings.Builder, w wire.TimeWindow) {
	// Zero times canonicalize like any other instant; UnixNano of the zero
	// time is a stable (if large negative) constant.
	b.WriteString(strconv.FormatInt(w.From.UnixNano(), 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatInt(w.To.UnixNano(), 10))
	b.WriteByte(',')
}

// canonicalQueryKey maps a cacheable read query to its canonical cache key.
// It returns "" for anything the serving plane does not cache (mutations,
// streaming queries, queries whose results depend on per-call state).
func canonicalQueryKey(req any) string {
	var b strings.Builder
	switch m := req.(type) {
	case *wire.RangeQuery:
		b.WriteString("range:")
		appendCanonRect(&b, m.Rect)
		appendCanonWindow(&b, m.Window)
		b.WriteString(strconv.Itoa(m.Limit))
	case *wire.CountQuery:
		b.WriteString("count:")
		appendCanonRect(&b, m.Rect)
		appendCanonWindow(&b, m.Window)
	case *wire.HeatmapQuery:
		b.WriteString("heat:")
		appendCanonRect(&b, m.Rect)
		appendCanonWindow(&b, m.Window)
		appendCanonF64(&b, m.CellSize)
	default:
		return ""
	}
	return b.String()
}

// canonicalContinuousKey maps a standing-query shape to the key the fan-out
// table deduplicates on.
func canonicalContinuousKey(kind wire.ContinuousKind, rect geo.Rect, threshold int) string {
	var b strings.Builder
	b.WriteString("cont:")
	b.WriteString(strconv.Itoa(int(kind)))
	b.WriteByte(':')
	appendCanonRect(&b, rect)
	b.WriteString(strconv.Itoa(threshold))
	return b.String()
}
