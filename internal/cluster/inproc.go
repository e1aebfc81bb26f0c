package cluster

import (
	"context"
	"sync"

	"stcam/internal/wire"
)

// InProc is an in-process Transport: calls dispatch directly to the target
// handler goroutine-to-goroutine. It is the substrate for unit tests and for
// the benchmark suite, where protocol behaviour (message counts, fan-out
// structure) matters but kernel networking noise does not.
//
// WithWireFormat makes the simulation stricter: it round-trips every
// payload through the production codec so in-proc behaviour cannot diverge
// from TCP semantics (no shared-pointer cheating). Faults — latency,
// partitions, drops — are injected by wrapping it in a Faulty.
type InProc struct {
	mu      sync.RWMutex
	servers map[string]*inprocServer
	stats   statCounters
	wireFmt bool
	closed  bool
}

type inprocServer struct {
	t       *InProc
	addr    string
	handler Handler
	closed  bool
}

// InProcOption configures an InProc transport.
type InProcOption func(*InProc)

// WithWireFormat makes every call marshal and unmarshal its payloads through
// the wire codec, guaranteeing value semantics identical to TCP.
func WithWireFormat() InProcOption {
	return func(t *InProc) { t.wireFmt = true }
}

// NewInProc returns an empty in-process transport.
func NewInProc(opts ...InProcOption) *InProc {
	t := &InProc{
		servers: make(map[string]*inprocServer),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

var _ Transport = (*InProc)(nil)

// Serve implements Transport.
func (t *InProc) Serve(addr string, h Handler) (Server, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrUnreachable
	}
	if _, exists := t.servers[addr]; exists {
		return nil, &RemoteError{Code: wire.CodeBadRequest, Message: "address already bound: " + addr}
	}
	s := &inprocServer{t: t, addr: addr, handler: h}
	t.servers[addr] = s
	return s, nil
}

// Call implements Transport.
func (t *InProc) Call(ctx context.Context, addr string, req any) (any, error) {
	t.stats.calls.Add(1)
	t.mu.RLock()
	s, ok := t.servers[addr]
	closed := ok && s.closed // s.closed is guarded by t.mu; don't read it after RUnlock
	wireFmt := t.wireFmt
	t.mu.RUnlock()
	if !ok || closed {
		t.stats.errors.Add(1)
		return nil, ErrUnreachable
	}
	// An expired or cancelled context fails the call before dispatch, as
	// over TCP, where the caller stops waiting for the reply at once.
	if err := ctx.Err(); err != nil {
		t.stats.errors.Add(1)
		return nil, err
	}
	sendReq := req
	if wireFmt {
		clone, n, err := t.roundTrip(req)
		if err != nil {
			t.stats.errors.Add(1)
			return nil, err
		}
		t.stats.bytesOut.Add(int64(n))
		sendReq = clone
	}
	resp, err := s.handler(ctx, "inproc", sendReq)
	if err != nil {
		t.stats.errors.Add(1)
		return nil, err
	}
	if wireFmt && resp != nil {
		clone, n, err := t.roundTrip(resp)
		if err != nil {
			t.stats.errors.Add(1)
			return nil, err
		}
		t.stats.bytesIn.Add(int64(n))
		resp = clone
	}
	if e, ok := resp.(*wire.Error); ok {
		return nil, &RemoteError{Code: e.Code, Message: e.Message}
	}
	return resp, nil
}

func (t *InProc) roundTrip(msg any) (any, int, error) {
	kind := wire.KindOf(msg)
	if kind == 0 {
		return nil, 0, &RemoteError{Code: wire.CodeBadRequest, Message: "unknown message type"}
	}
	// Encode into a pooled buffer: decoded messages never alias the encode
	// bytes, so the buffer goes back to the pool as soon as Unmarshal returns.
	buf := wire.BorrowBuf()
	defer buf.Release()
	body, err := wire.AppendMarshal(buf.B[:0], kind, msg)
	if err != nil {
		return nil, 0, err
	}
	buf.B = body
	out, err := wire.Unmarshal(kind, body)
	if err != nil {
		return nil, 0, err
	}
	return out, len(body), nil
}

// Stats implements Transport.
func (t *InProc) Stats() TransportStats { return t.stats.snapshot() }

// Close implements Transport.
func (t *InProc) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, s := range t.servers {
		s.closed = true
	}
	t.servers = make(map[string]*inprocServer)
	return nil
}

// Addr implements Server.
func (s *inprocServer) Addr() string { return s.addr }

// Close implements Server.
func (s *inprocServer) Close() error {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.closed {
		s.closed = true
		delete(s.t.servers, s.addr)
	}
	return nil
}
