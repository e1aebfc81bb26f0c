package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stcam/internal/clock"
	"stcam/internal/metrics"
	"stcam/internal/wire"
)

// ErrCircuitOpen is returned for calls rejected by an open circuit breaker.
// It wraps ErrUnreachable so callers that degrade gracefully on dead peers
// (availability over completeness) treat a tripped breaker the same way.
var ErrCircuitOpen = fmt.Errorf("%w: circuit open", ErrUnreachable)

// Policy tunes the Resilient transport decorator: per-attempt deadlines,
// capped exponential backoff with seeded jitter, and a per-peer circuit
// breaker. The zero value selects the documented defaults; negative values
// disable the corresponding mechanism.
type Policy struct {
	// MaxAttempts is the total number of tries per Call, including the
	// first (default 3; 1 disables retries).
	MaxAttempts int
	// PerAttemptTimeout bounds each attempt. The whole Call additionally
	// respects the caller's context, which always wins (default 2s;
	// negative leaves attempts unbounded).
	PerAttemptTimeout time.Duration
	// BaseBackoff is the delay before the first retry (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 500ms).
	MaxBackoff time.Duration
	// Multiplier grows the backoff per retry (default 2; 1 = constant).
	Multiplier float64
	// Jitter is the fraction of each backoff randomized away, in [0, 1]:
	// the slept delay is backoff × (1 − Jitter×U[0,1)). Jitter draws come
	// from a Seed-ed RNG, so schedules are reproducible (default 0.2;
	// negative disables jitter).
	Jitter float64
	// Seed seeds the jitter RNG (default 1).
	Seed int64
	// FailureThreshold is the number of consecutive transport failures to
	// one peer that opens its circuit breaker (default 5; negative disables
	// circuit breaking).
	FailureThreshold int
	// Cooldown is how long an open breaker waits before admitting a single
	// half-open probe call (default 1s).
	Cooldown time.Duration
	// SlowCallThreshold, when positive, makes every Call whose total
	// duration (including retries and backoff) reaches it emit one
	// structured log line carrying the trace ID. Zero disables slow-call
	// logging.
	SlowCallThreshold time.Duration
}

// withDefaults resolves zero fields to the documented defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.PerAttemptTimeout == 0 {
		p.PerAttemptTimeout = 2 * time.Second
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Multiplier < 1 {
		p.Multiplier = 1
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.FailureThreshold == 0 {
		p.FailureThreshold = 5
	}
	if p.Cooldown == 0 {
		p.Cooldown = time.Second
	}
	return p
}

// backoff returns the pre-jitter delay before retry number `retry`
// (1-based): BaseBackoff × Multiplier^(retry−1), capped at MaxBackoff.
func (p Policy) backoff(retry int) time.Duration {
	d := float64(p.BaseBackoff)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxBackoff) {
			return p.MaxBackoff
		}
	}
	if d > float64(p.MaxBackoff) {
		return p.MaxBackoff
	}
	return time.Duration(d)
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one peer's circuit breaker: closed → open after
// FailureThreshold consecutive transport failures; open → half-open after
// the cooldown, admitting one probe call whose outcome closes or reopens
// the circuit.
type breaker struct {
	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool
}

// allow reports whether a call may proceed now. In half-open state only one
// probe is in flight at a time.
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess closes the breaker.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// onFailure records a transport failure, returning true when this failure
// opened (or reopened) the breaker.
func (b *breaker) onFailure(now time.Time, threshold int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		return true
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= threshold {
		b.state = breakerOpen
		b.openedAt = now
		return true
	}
	return false
}

// trip forces the breaker open as if the threshold had just been crossed.
func (b *breaker) trip(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerOpen
	b.openedAt = now
	b.probing = false
}

// Resilient decorates any Transport with per-attempt deadlines, retry with
// capped seeded-jitter exponential backoff, and a per-peer circuit breaker.
//
// Error classification: transport failures (ErrUnreachable, per-attempt
// timeouts, broken connections) are retried and feed the breaker;
// *RemoteError means the remote handler answered — the link is healthy — so
// it is returned immediately and resets the breaker. The caller's context
// always wins: its cancellation or deadline ends the call without further
// attempts.
//
// Call semantics become at-least-once: an attempt that times out may have
// executed on the peer, and its retry executes again. Queries and the
// protocol's idempotent control messages (heartbeats, assignments keyed by
// epoch, track primes keyed by track ID) tolerate this; non-idempotent
// payloads need request-level dedup before enabling retries.
type Resilient struct {
	inner  Transport
	policy Policy
	reg    *metrics.Registry // optional mirror of the counters below

	now   func() time.Time                                 // injectable for tests
	sleep func(ctx context.Context, d time.Duration) error // injectable for tests

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	breakers map[string]*breaker

	retries      atomic.Int64
	timeouts     atomic.Int64
	breakerOpens atomic.Int64
	fastFails    atomic.Int64
	inFlight     atomic.Int64
	maxInFlight  atomic.Int64
}

var _ Transport = (*Resilient)(nil)

// ResilientOption configures a Resilient transport.
type ResilientOption func(*Resilient)

// WithRPCMetrics mirrors the resilience counters (rpc.retries,
// rpc.timeouts, rpc.breaker_opens, rpc.breaker_fastfails) into a metrics
// registry, alongside the TransportStats snapshot.
func WithRPCMetrics(reg *metrics.Registry) ResilientOption {
	return func(r *Resilient) { r.reg = reg }
}

// WithClock routes the resilience layer's backoff sleeps and breaker
// timestamps through the given clock, so seeded soaks drive retry timing
// from the same schedule as everything else. Defaults to clock.Wall.
func WithClock(c clock.Clock) ResilientOption {
	return func(r *Resilient) {
		if c == nil {
			return
		}
		r.now = c.Now
		r.sleep = c.Sleep
	}
}

// NewResilient wraps a transport with the given policy. Zero policy fields
// take the documented defaults; see Policy.
func NewResilient(inner Transport, p Policy, opts ...ResilientOption) *Resilient {
	r := &Resilient{
		inner:    inner,
		policy:   p.withDefaults(),
		now:      clock.Wall.Now,
		sleep:    clock.Wall.Sleep,
		breakers: make(map[string]*breaker),
	}
	r.rng = rand.New(rand.NewSource(r.policy.Seed))
	for _, o := range opts {
		o(r)
	}
	return r
}

// Policy returns the resolved policy in effect.
func (r *Resilient) Policy() Policy { return r.policy }

// Serve implements Transport.
func (r *Resilient) Serve(addr string, h Handler) (Server, error) { return r.inner.Serve(addr, h) }

// Close implements Transport.
func (r *Resilient) Close() error { return r.inner.Close() }

// Stats implements Transport: the inner transport's counters (Calls counts
// individual attempts) plus the resilience counters.
func (r *Resilient) Stats() TransportStats {
	s := r.inner.Stats()
	s.Retries = r.retries.Load()
	s.Timeouts = r.timeouts.Load()
	s.BreakerOpens = r.breakerOpens.Load()
	s.BreakerFastFails = r.fastFails.Load()
	s.InFlight = r.inFlight.Load()
	s.MaxInFlight = r.maxInFlight.Load()
	return s
}

// Call implements Transport with retries, deadlines, and circuit breaking.
// Every call carries a trace ID: the caller's (via WithTrace) or a fresh one,
// stamped into the context so the wire layer puts it on the frame. The whole
// call (attempts + backoff) is timed into a per-message-kind latency
// histogram when a metrics registry is attached, and calls slower than
// Policy.SlowCallThreshold log one line with the trace ID.
func (r *Resilient) Call(ctx context.Context, addr string, req any) (any, error) {
	traceID := TraceFrom(ctx)
	if traceID == 0 {
		traceID = NewTraceID()
		ctx = WithTrace(ctx, traceID)
	}
	start := r.now()
	resp, attempts, err := r.call(ctx, addr, traceID, req)
	elapsed := r.now().Sub(start)
	if r.reg != nil {
		r.reg.Histogram("rpc.call." + wire.KindOf(req).String()).Observe(elapsed) //lint:allow metricname per-kind latency series; cardinality bounded by the closed wire.MsgKind enum
	}
	if t := r.policy.SlowCallThreshold; t > 0 && elapsed >= t {
		log.Printf("cluster: slow rpc trace=%s kind=%v peer=%s attempts=%d elapsed=%v err=%v",
			TraceString(traceID), wire.KindOf(req), addr, attempts, elapsed, err)
	}
	return resp, err
}

// call runs the retry loop, returning the number of attempts made.
func (r *Resilient) call(ctx context.Context, addr string, traceID uint64, req any) (any, int, error) {
	// In-flight accounting: pipelined callers (the ingest path) read the
	// high-water mark to confirm their concurrency window actually opened.
	cur := r.inFlight.Add(1)
	for {
		max := r.maxInFlight.Load()
		if cur <= max || r.maxInFlight.CompareAndSwap(max, cur) {
			break
		}
	}
	defer r.inFlight.Add(-1)
	if r.reg != nil {
		r.reg.Gauge("rpc.inflight").Set(cur)
	}
	p := r.policy
	br := r.breakerFor(addr)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if br != nil && !br.allow(r.now(), p.Cooldown) {
			r.fastFails.Add(1)
			r.count("rpc.breaker_fastfails")
			return nil, attempt - 1, fmt.Errorf("%w (%s)", ErrCircuitOpen, addr)
		}
		actx := ctx
		cancel := func() {}
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		resp, err := r.inner.Call(actx, addr, req)
		attemptTimedOut := errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
		cancel()
		if err == nil {
			if br != nil {
				br.onSuccess()
			}
			return resp, attempt, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// The remote handler answered; the link is healthy and the
			// failure is semantic — retrying cannot change the answer.
			if br != nil {
				br.onSuccess()
			}
			return nil, attempt, err
		}
		// Per-attempt trace logging rides the slow-call switch so fault-heavy
		// test runs (which inject failures on purpose) stay quiet by default.
		if p.SlowCallThreshold > 0 {
			log.Printf("cluster: rpc attempt failed trace=%s kind=%v peer=%s attempt=%d/%d err=%v",
				TraceString(traceID), wire.KindOf(req), addr, attempt, p.MaxAttempts, err)
		}
		if attemptTimedOut {
			r.timeouts.Add(1)
			r.count("rpc.timeouts")
		}
		if br != nil && br.onFailure(r.now(), p.FailureThreshold) {
			r.breakerOpens.Add(1)
			r.count("rpc.breaker_opens")
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, attempt, lastErr // the caller gave up; no further attempts
		}
		if attempt >= p.MaxAttempts {
			return nil, attempt, lastErr
		}
		r.retries.Add(1)
		r.count("rpc.retries")
		if err := r.sleep(ctx, r.jittered(p.backoff(attempt))); err != nil {
			return nil, attempt, lastErr
		}
	}
}

// BreakerOpen reports whether addr's circuit is currently open (a call now
// would fail fast).
//
//lint:allow testonly circuit-breaker probe the resilience tests assert on
func (r *Resilient) BreakerOpen(addr string) bool {
	r.mu.Lock()
	b, ok := r.breakers[addr]
	r.mu.Unlock()
	if !ok {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen
}

// TripBreaker forces addr's breaker open now, as if FailureThreshold
// consecutive failures had just been observed — an operational drain hook
// and a test seam. No-op when circuit breaking is disabled.
//
//lint:allow testonly opens a breaker on demand so resilience tests need not script failures
func (r *Resilient) TripBreaker(addr string) {
	b := r.breakerFor(addr)
	if b == nil {
		return
	}
	b.trip(r.now())
	r.breakerOpens.Add(1)
	r.count("rpc.breaker_opens")
}

func (r *Resilient) breakerFor(addr string) *breaker {
	if r.policy.FailureThreshold < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[addr]
	if !ok {
		b = &breaker{}
		r.breakers[addr] = b
	}
	return b
}

func (r *Resilient) jittered(d time.Duration) time.Duration {
	if r.policy.Jitter <= 0 || d <= 0 {
		return d
	}
	r.rngMu.Lock()
	u := r.rng.Float64()
	r.rngMu.Unlock()
	return d - time.Duration(float64(d)*r.policy.Jitter*u)
}

func (r *Resilient) count(name string) {
	if r.reg != nil {
		r.reg.Counter(name).Inc() //lint:allow metricname helper forwards literal keys from its call sites; no runtime data reaches the name
	}
}
