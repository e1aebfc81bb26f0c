// Package cluster provides the distribution substrate: request/response
// transports (in-process for tests and benchmarks, TCP for deployments),
// membership with heartbeat failure detection, and camera-to-worker
// partitioning strategies.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Handler processes one request and returns a response payload. Both request
// and response must be wire message pointers (wire.KindOf must know them).
// Handlers are invoked concurrently. A Handler must not keep req, or any
// slice reachable from it, after it returns: on the zero-copy InProc the
// request is the caller's own value, which the caller may clear and reuse
// once Call returns. It copies what it keeps.
type Handler func(ctx context.Context, from string, req any) (any, error)

// Server is a bound listener.
type Server interface {
	// Addr returns the bound address (useful with ":0" listeners).
	Addr() string
	// Close stops serving. Safe to call twice.
	Close() error
}

// Transport moves wire messages between nodes.
type Transport interface {
	// Serve starts handling requests at addr.
	Serve(addr string, h Handler) (Server, error)
	// Call sends req to addr and waits for the response. It does not keep
	// req after it returns, so the caller may reuse it at once.
	Call(ctx context.Context, addr string, req any) (any, error)
	// Stats returns cumulative transport counters.
	Stats() TransportStats
	// Close releases client-side resources (server handles stay open until
	// their own Close).
	Close() error
}

// TransportStats counts traffic through a transport. Experiment R3 reads
// Calls to compare handoff message complexity across strategies. The
// resilience counters are zero unless the transport is wrapped in a
// Resilient decorator, which fills them in its Stats snapshot.
type TransportStats struct {
	Calls  int64
	Errors int64
	// BytesOut and BytesIn are the encoded payload bytes of the requests
	// Call delivered and the responses it received, frame headers excluded.
	// TCP always counts them; InProc only with WithWireFormat, since without
	// it payloads pass by pointer. A Faulty decorator reports its inner
	// transport's counts: a duplicated request counts twice, and a call it
	// drops, hangs or partitions counts nothing.
	BytesOut int64
	BytesIn  int64

	Retries          int64 // attempts beyond the first, per Call
	Timeouts         int64 // attempts that hit the per-attempt deadline
	BreakerOpens     int64 // closed/half-open → open breaker transitions
	BreakerFastFails int64 // calls rejected by an open breaker
	InFlight         int64 // Calls currently executing (snapshot instant)
	MaxInFlight      int64 // high-water mark of concurrent Calls
}

// ErrUnreachable is returned for calls to addresses with no live server.
var ErrUnreachable = errors.New("cluster: address unreachable")

// RemoteError is a structured failure returned by the remote handler (as
// opposed to a transport failure).
type RemoteError struct {
	Code    int
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error %d: %s", e.Code, e.Message)
}

// statCounters is the shared atomic implementation behind Stats.
type statCounters struct {
	calls    atomic.Int64
	errors   atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

func (s *statCounters) snapshot() TransportStats {
	return TransportStats{
		Calls:    s.calls.Load(),
		Errors:   s.errors.Load(),
		BytesOut: s.bytesOut.Load(),
		BytesIn:  s.bytesIn.Load(),
	}
}
