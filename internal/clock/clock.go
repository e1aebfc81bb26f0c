// Package clock is the injected time seam for the framework's liveness logic.
//
// Protocol logic (track loss, prime expiry, continuous windows) runs on
// observation time and never consults this package. Everything that does need
// wall-clock reads — heartbeat staleness, lease expiry, retry backoff,
// latency histograms — goes through a Clock so soaks and fault schedules can
// run against a deterministic, manually advanced source. The stcamlint
// clockinject analyzer forbids raw time.Now/time.Sleep in internal/core,
// internal/cluster, and internal/stindex; this package is the one allowlisted
// place the real wall clock is read.
package clock

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock supplies the current time and context-aware sleeps.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case. d <= 0 returns immediately.
	Sleep(ctx context.Context, d time.Duration) error
}

// Wall is the real wall clock.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fake is a manually advanced clock for deterministic tests and soaks. The
// zero value starts at the zero time; NewFake picks an arbitrary fixed epoch.
// Sleep blocks until Advance moves the clock past the wake deadline, so a
// test drives every timer explicitly and two runs with the same schedule are
// bit-identical.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

// NewFake returns a Fake starting at a fixed, arbitrary epoch.
//
//lint:allow testonly the deterministic-time seam tests and seeded soaks drive in place of the wall clock
func NewFake() *Fake {
	return &Fake{now: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep blocks until the fake clock advances past now+d or ctx is done.
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	f.mu.Lock()
	w := &fakeWaiter{deadline: f.now.Add(d), ch: make(chan struct{})}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		for i, o := range f.waiters {
			if o == w {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
		f.mu.Unlock()
		return ctx.Err()
	}
}

// Advance moves the clock forward by d and wakes every sleeper whose deadline
// has passed, in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	var due []*fakeWaiter
	rest := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.deadline.After(f.now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	f.waiters = rest
	f.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, w := range due {
		close(w.ch)
	}
}

// Set jumps the clock to t (which must not move backwards) and wakes due
// sleepers.
//
//lint:allow testonly part of the Fake clock seam tests drive
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	d := t.Sub(f.now)
	f.mu.Unlock()
	if d > 0 {
		f.Advance(d)
	}
}

// Sleepers reports how many Sleep calls are currently blocked, so tests can
// wait for a goroutine to park before advancing.
//
//lint:allow testonly part of the Fake clock seam tests drive: lets a test wait until a goroutine blocks
func (f *Fake) Sleepers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

var _ Clock = (*Fake)(nil)
