package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProgram describes the failure behaviour injected on one link (calls
// from this transport to one destination address). Probabilities are in
// [0, 1] and are evaluated per call from the Faulty transport's seeded RNG,
// so a given seed replays the same fault sequence.
type FaultProgram struct {
	// Drop is the probability a call fails immediately with ErrUnreachable,
	// as a lost or refused connection would.
	Drop float64
	// Hang is the probability a call blocks until the caller's context
	// expires — silent loss, the failure mode per-attempt deadlines exist
	// for. Takes precedence over Drop when both fire.
	Hang float64
	// Duplicate is the probability the request is delivered twice; the
	// duplicate's response is discarded. Exercises at-least-once semantics.
	Duplicate float64
	// Latency delays every call; Jitter adds a uniform [0, Jitter) extra.
	// The delay is one timer wait, so it lasts at least the host's timer
	// floor: on a 2-core Linux host a 200 µs or 400 µs wait reads a p50 of
	// about 1.1 ms.
	Latency time.Duration
	Jitter  time.Duration
	// Partition fails every call to this address fast with ErrUnreachable.
	// Only the wrapped (calling) side is affected, so wrapping a single
	// node's transport yields a one-way partition.
	Partition bool
}

// FaultStats counts the faults a Faulty transport has injected.
type FaultStats struct {
	Dropped    int64 // calls failed by Drop or Partition
	Hung       int64 // calls blocked until context expiry
	Duplicated int64 // extra deliveries injected
	Delayed    int64 // calls delayed by Latency/Jitter
}

// Faulty is a fault-injecting Transport decorator with deterministic,
// seeded per-link fault programs. It works over any Transport (InProc and
// TCP alike) and is the substrate for failure experiments: program a link
// with drops, added latency, hangs, one-way partitions, or duplicate
// delivery, and the wrapped side experiences exactly that — repeatably.
//
// Addresses without a program pass through untouched, so a single program
// isolates one link while the rest of the cluster stays healthy.
type Faulty struct {
	inner Transport

	mu       sync.Mutex
	rng      *rand.Rand
	programs map[string]FaultProgram

	dropped    atomic.Int64
	hung       atomic.Int64
	duplicated atomic.Int64
	delayed    atomic.Int64
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps a transport with fault injection. The seed fixes the
// fault sequence for reproducible failure tests.
func NewFaulty(inner Transport, seed int64) *Faulty {
	return &Faulty{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		programs: make(map[string]FaultProgram),
	}
}

// SetProgram installs (or replaces) the fault program for one destination
// address.
func (f *Faulty) SetProgram(addr string, p FaultProgram) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.programs[addr] = p
}

// SetPartitioned flips only the Partition bit of addr's fault program,
// preserving any drop/latency/duplicate chaos already installed on the link.
// Healing (on=false) a link whose program is otherwise zero removes the
// program entirely so the link passes through untouched again.
func (f *Faulty) SetPartitioned(addr string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.programs[addr]
	p.Partition = on
	if p == (FaultProgram{}) {
		delete(f.programs, addr)
		return
	}
	f.programs[addr] = p
}

// ClearProgram removes a destination's fault program; calls pass through
// untouched again.
//
//lint:allow testonly fault-injection API: tests script per-link faults with it
func (f *Faulty) ClearProgram(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.programs, addr)
}

// Program returns the fault program installed for addr, if any.
//
//lint:allow testonly fault-injection API: tests read back a link's scripted faults
func (f *Faulty) Program(addr string) (FaultProgram, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.programs[addr]
	return p, ok
}

// Injected returns the cumulative injected-fault counters.
func (f *Faulty) Injected() FaultStats {
	return FaultStats{
		Dropped:    f.dropped.Load(),
		Hung:       f.hung.Load(),
		Duplicated: f.duplicated.Load(),
		Delayed:    f.delayed.Load(),
	}
}

// Serve implements Transport.
func (f *Faulty) Serve(addr string, h Handler) (Server, error) { return f.inner.Serve(addr, h) }

// Stats implements Transport.
func (f *Faulty) Stats() TransportStats { return f.inner.Stats() }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }

// Call implements Transport, applying the destination's fault program.
func (f *Faulty) Call(ctx context.Context, addr string, req any) (any, error) {
	f.mu.Lock()
	p, ok := f.programs[addr]
	if !ok {
		f.mu.Unlock()
		return f.inner.Call(ctx, addr, req)
	}
	// Draw every roll up front, in fixed order, so the fault sequence for a
	// seed does not depend on which faults the program enables.
	hangRoll := f.rng.Float64()
	dropRoll := f.rng.Float64()
	dupRoll := f.rng.Float64()
	var extra time.Duration
	if p.Jitter > 0 {
		extra = time.Duration(f.rng.Int63n(int64(p.Jitter)))
	}
	f.mu.Unlock()

	if p.Partition {
		f.dropped.Add(1)
		return nil, fmt.Errorf("%w: injected partition (%s)", ErrUnreachable, addr)
	}
	if p.Hang > 0 && hangRoll < p.Hang {
		f.hung.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if p.Drop > 0 && dropRoll < p.Drop {
		f.dropped.Add(1)
		return nil, fmt.Errorf("%w: injected drop (%s)", ErrUnreachable, addr)
	}
	if d := p.Latency + extra; d > 0 {
		f.delayed.Add(1)
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if p.Duplicate > 0 && dupRoll < p.Duplicate {
		f.duplicated.Add(1)
		f.inner.Call(ctx, addr, req) //nolint:errcheck // duplicate delivery; this response is discarded
	}
	return f.inner.Call(ctx, addr, req)
}
