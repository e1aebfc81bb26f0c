package main

import (
	"sort"
	"sync"
	"time"
)

// lats records operations: when each completed (offset from the start of the
// timed window), how long it took, and how many units of work it carried (1
// for a query, the accepted detections for an ingest batch). Safe for
// concurrent use.
type lats struct {
	mu sync.Mutex
	at []time.Duration
	d  []time.Duration
	w  []int
}

func (l *lats) add(at, d time.Duration, work int) {
	l.mu.Lock()
	l.at = append(l.at, at)
	l.d = append(l.d, d)
	l.w = append(l.w, work)
	l.mu.Unlock()
}

func (l *lats) n() int { return len(l.d) }

// merge appends o's samples.
func (l *lats) merge(o *lats) {
	l.at = append(l.at, o.at...)
	l.d = append(l.d, o.d...)
	l.w = append(l.w, o.w...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of ds (nearest rank); 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (l *lats) p50() time.Duration { return quantile(l.d, 0.50) }
func (l *lats) p99() time.Duration { return quantile(l.d, 0.99) }

// window is the samples that completed inside one slice of the timed window.
type window struct {
	d    []time.Duration
	work int
}

// windows cuts the samples into consecutive slices of the given width and
// returns the complete ones: the last slice is cut short by the deadline (or
// holds only the stragglers that finished after it) and is dropped. Every
// gated figure is a median across these slices, so a warm-up transient, a
// forced collection or a scheduler stall lands in one slice instead of
// setting the figure. A run shorter than two slices yields nothing, and the
// callers fall back to whole-run figures.
func (l *lats) windows(width time.Duration) []window {
	last := 0
	for _, at := range l.at {
		last = max(last, int(at/width))
	}
	wins := make([]window, last)
	for i, at := range l.at {
		if k := int(at / width); k < last {
			wins[k].d = append(wins[k].d, l.d[i])
			wins[k].work += l.w[i]
		}
	}
	return wins
}

// rate is work completed per second: the median across windows.
func (l *lats) rate(width time.Duration) float64 {
	wins := l.windows(width)
	if len(wins) == 0 {
		total, end := 0, time.Duration(1)
		for i, at := range l.at {
			total += l.w[i]
			end = max(end, at)
		}
		return float64(total) / end.Seconds()
	}
	per := make([]float64, len(wins))
	for i, w := range wins {
		per[i] = float64(w.work) / width.Seconds()
	}
	return medianF(per)
}

// qw is the windowed quantile: q inside each window, then the median across
// windows.
func (l *lats) qw(q float64, width time.Duration) time.Duration {
	wins := l.windows(width)
	if len(wins) == 0 {
		return quantile(l.d, q)
	}
	var per []float64
	for _, w := range wins {
		if len(w.d) > 0 {
			per = append(per, float64(quantile(w.d, q)))
		}
	}
	return time.Duration(medianF(per))
}

func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func meanF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
