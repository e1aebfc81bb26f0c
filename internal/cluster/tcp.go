package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"stcam/internal/wire"
)

// TCP is the production Transport: one multiplexed TCP connection per remote
// address, length-prefixed wire frames tagged with request IDs, concurrent
// handler dispatch on the server side.
//
// RPC frame layout (inside the TCP stream):
//
//	[4B frame length][8B request id][1B flags][1B kind][8B trace id]?[1B priority][1B tenant len][tenant]?[payload]
//
// where flags bit0 = response, bit1 = trace id present (frame v2: the 8-byte
// trace field follows the kind byte), and bit3 = QoS tag present (frame v4: a
// priority byte plus a length-prefixed tenant name follow the trace field;
// the serving plane's admission control reads them via
// PriorityFrom/TenantFrom). Frames without bit1/bit3 are the original v1
// layout, so old and new peers interoperate: a v1 frame decodes as an
// untraced, untagged call, and untraced untagged calls are emitted as v1
// frames byte-for-byte. Any other flag bit fails the frame cleanly, so a
// frame from a newer layout is never misread as this one. The payload is the
// wire codec's encoding of the kind's message; the frame length covers
// everything after the length field itself and is capped at MaxFrameSize.
//
// Frames are built in and read into pooled wire.Buf buffers: encode appends
// the header and payload into one borrowed buffer released after the socket
// write, and the reader decodes out of a borrowed buffer released after
// wire.Unmarshal (decoded payloads never alias the read buffer), so steady
// state frame handling does not allocate per message.
type TCP struct {
	mu      sync.Mutex
	clients map[string]*tcpClient
	stats   statCounters
	closed  bool
}

// NewTCP returns a TCP transport.
func NewTCP() *TCP {
	return &TCP{clients: make(map[string]*tcpClient)}
}

var _ Transport = (*TCP)(nil)

// MaxFrameSize bounds a single frame; larger frames are rejected on both
// sides to keep a corrupt or malicious peer from forcing huge allocations.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds maximum size")

const (
	flagResponse = 1 << 0
	flagTrace    = 1 << 1 // frame v2: 8-byte trace id follows the kind byte
	flagQoS      = 1 << 3 // frame v4: priority byte + tenant string follow the trace field
	// flagsKnown is every flag bit this build reads; a frame setting any
	// other bit is rejected.
	flagsKnown   = flagResponse | flagTrace | flagQoS
	rpcHeaderLen = 8 + 1 + 1
	rpcTraceLen  = 8
	// maxTenantLen bounds the tenant name on the wire (one length byte).
	maxTenantLen = 255
)

// envelope is a decoded payload and its encoded size in bytes.
type envelope struct {
	payload any
	size    int
}

// frameHeader is the decoded RPC frame header: identity, routing flags, and
// the optional trace/QoS tags.
type frameHeader struct {
	reqID   uint64
	flags   byte
	traceID uint64
	pri     Priority
	tenant  string
}

// Serve implements Transport.
func (t *TCP) Serve(addr string, h Handler) (Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &tcpServer{t: t, ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

type tcpServer struct {
	t       *TCP
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func (s *tcpServer) Addr() string { return s.ln.Addr().String() }

func (s *tcpServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	peer := conn.RemoteAddr().String()
	r := bufio.NewReaderSize(conn, 64<<10)
	var writeMu sync.Mutex
	w := bufio.NewWriterSize(conn, 64<<10)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		hdr, env, err := readRPCFrame(r)
		if err != nil {
			return
		}
		if hdr.flags&flagResponse != 0 {
			continue // stray response on a server connection; drop
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			hctx := WithTrace(context.Background(), hdr.traceID)
			hctx = WithPriority(hctx, hdr.pri)
			hctx = WithTenant(hctx, hdr.tenant)
			resp, err := s.handler(hctx, peer, env.payload)
			if err != nil {
				resp = &wire.Error{Code: wire.CodeUnknown, Message: err.Error()}
			}
			if resp == nil {
				resp = &wire.Error{Code: wire.CodeUnknown, Message: "handler returned no response"}
			}
			// Marshal the whole frame before touching the shared writer: a
			// response that fails to encode must not leave a half-written
			// frame that would garble every later response on this
			// connection. Encoding failures turn into an Error response;
			// write failures mean the stream state is unknown, so the only
			// safe move is to drop the connection and let the client redial.
			// The response frame echoes the request's trace ID. The frame is
			// built in a pooled buffer released once the bufio writer has
			// copied it.
			buf := wire.BorrowBuf()
			defer buf.Release()
			frame, err := appendRPCFrame(buf.B[:0], hdr.reqID, flagResponse, hdr.traceID, resp)
			if err != nil {
				frame, err = appendRPCFrame(buf.B[:0], hdr.reqID, flagResponse, hdr.traceID,
					&wire.Error{Code: wire.CodeUnknown, Message: "response encoding failed: " + err.Error()})
				if err != nil {
					conn.Close()
					return
				}
			}
			buf.B = frame
			writeMu.Lock()
			defer writeMu.Unlock()
			if _, err := w.Write(frame); err != nil {
				conn.Close()
				return
			}
			if err := w.Flush(); err != nil {
				conn.Close()
			}
		}()
	}
}

// Call implements Transport.
func (t *TCP) Call(ctx context.Context, addr string, req any) (any, error) {
	t.stats.calls.Add(1)
	c, err := t.client(addr)
	if err != nil {
		t.stats.errors.Add(1)
		return nil, err
	}
	resp, err := c.call(ctx, req)
	if err != nil {
		t.stats.errors.Add(1)
		// A dead connection is removed so the next call redials.
		t.mu.Lock()
		if t.clients[addr] == c && c.dead() {
			delete(t.clients, addr)
		}
		t.mu.Unlock()
		return nil, err
	}
	if e, ok := resp.(*wire.Error); ok {
		return nil, &RemoteError{Code: e.Code, Message: e.Message}
	}
	return resp, nil
}

func (t *TCP) client(addr string) (*tcpClient, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrUnreachable
	}
	if c, ok := t.clients[addr]; ok && !c.dead() {
		return c, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	c := newTCPClient(conn, &t.stats)
	t.clients[addr] = c
	return c, nil
}

// Stats implements Transport.
func (t *TCP) Stats() TransportStats { return t.stats.snapshot() }

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for addr, c := range t.clients {
		c.close()
		delete(t.clients, addr)
	}
	return nil
}

// tcpClient is one multiplexed client connection.
type tcpClient struct {
	conn  net.Conn
	stats *statCounters

	writeMu sync.Mutex
	w       *bufio.Writer

	mu      sync.Mutex
	pending map[uint64]chan envelope
	nextID  uint64
	closed  bool
}

func newTCPClient(conn net.Conn, stats *statCounters) *tcpClient {
	c := &tcpClient{
		conn:    conn,
		stats:   stats,
		w:       bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]chan envelope),
		nextID:  1,
	}
	go c.readLoop()
	return c
}

func (c *tcpClient) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *tcpClient) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
}

func (c *tcpClient) readLoop() {
	r := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		hdr, env, err := readRPCFrame(r)
		if err != nil {
			c.close()
			return
		}
		if hdr.flags&flagResponse == 0 {
			continue // servers do not push requests to clients
		}
		c.mu.Lock()
		ch, ok := c.pending[hdr.reqID]
		if ok {
			delete(c.pending, hdr.reqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- env
		}
	}
}

func (c *tcpClient) call(ctx context.Context, req any) (any, error) {
	ch := make(chan envelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrUnreachable
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	n, err := writeRPCFrame(c.w, id, TraceFrom(ctx), PriorityFrom(ctx), TenantFrom(ctx), req)
	if err == nil {
		err = c.w.Flush()
	}
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.close()
		return nil, fmt.Errorf("cluster: send: %w", err)
	}
	c.stats.bytesOut.Add(int64(n))

	select {
	case env, ok := <-ch:
		if !ok {
			return nil, ErrUnreachable
		}
		c.stats.bytesIn.Add(int64(env.size))
		return env.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// appendRPCFrame marshals one framed RPC message onto buf and returns the
// extended slice. Encoding happens entirely off the wire, so a failure here
// never corrupts a connection; on error buf is returned at its original
// length. The header and payload are appended into the same buffer — there is
// no intermediate body slice — so encoding into a pooled buffer is
// allocation-free at steady state. A non-zero traceID selects the v2 layout
// (flagTrace set, 8-byte trace field); traceID 0 emits the original v1 frame
// byte-for-byte.
func appendRPCFrame(buf []byte, reqID uint64, flags byte, traceID uint64, payload any) ([]byte, error) {
	frame, _, err := appendRPCFrameFull(buf, reqID, flags, traceID, PriorityNone, "", payload)
	return frame, err
}

// appendRPCFrameFull is the full frame encoder: trace and QoS tags. It also
// returns the payload's encoded size. The caller may set only flagResponse;
// the encoder owns the tag bits. An untagged call (PriorityNone, empty
// tenant) emits a pre-QoS frame byte-for-byte, so old peers keep decoding
// traffic from new clients.
func appendRPCFrameFull(buf []byte, reqID uint64, flags byte, traceID uint64, pri Priority, tenant string, payload any) ([]byte, int, error) {
	kind := wire.KindOf(payload)
	if kind == 0 {
		return buf, 0, &RemoteError{Code: wire.CodeBadRequest, Message: fmt.Sprintf("unknown message type %T", payload)}
	}
	if flags&^flagResponse != 0 {
		return buf, 0, fmt.Errorf("cluster: frame flags 0x%02x: only the response bit is the caller's", flags)
	}
	if len(tenant) > maxTenantLen {
		return buf, 0, &RemoteError{Code: wire.CodeBadRequest, Message: fmt.Sprintf("tenant name %d bytes exceeds %d", len(tenant), maxTenantLen)}
	}
	if traceID != 0 {
		flags |= flagTrace
	}
	if pri != PriorityNone || tenant != "" {
		flags |= flagQoS
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = append(buf, flags, byte(kind))
	if traceID != 0 {
		buf = binary.BigEndian.AppendUint64(buf, traceID)
	}
	if flags&flagQoS != 0 {
		buf = append(buf, byte(pri), byte(len(tenant)))
		buf = append(buf, tenant...)
	}
	out, err := wire.AppendMarshal(buf, kind, payload)
	if err != nil {
		return buf[:start], 0, err
	}
	total := len(out) - start - 4
	if total > MaxFrameSize {
		return out[:start], 0, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(out[start:start+4], uint32(total))
	return out, len(out) - len(buf), nil
}

// writeRPCFrame marshals and writes one framed RPC request via a pooled
// buffer (w is buffered, so the frame is copied before release) and returns
// the payload's encoded size. pri/tenant add the QoS tag; untagged calls
// stay pre-QoS frames byte-for-byte.
func writeRPCFrame(w io.Writer, reqID uint64, traceID uint64, pri Priority, tenant string, payload any) (int, error) {
	buf := wire.BorrowBuf()
	defer buf.Release()
	frame, n, err := appendRPCFrameFull(buf.B[:0], reqID, 0, traceID, pri, tenant, payload)
	if err != nil {
		return 0, err
	}
	buf.B = frame
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return n, nil
}

// readRPCFrame reads one framed RPC message into a pooled buffer, released
// before returning (decoded payloads never alias it). hdr.traceID is 0 and
// hdr.pri/hdr.tenant are zero for v1 frames. A frame setting a flag bit
// outside flagsKnown is rejected, never decoded as if the bit were clear.
func readRPCFrame(r io.Reader) (hdr frameHeader, env envelope, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return frameHeader{}, envelope{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < rpcHeaderLen || total > MaxFrameSize {
		return frameHeader{}, envelope{}, ErrFrameTooLarge
	}
	b := wire.BorrowBuf()
	defer b.Release()
	buf := b.Grow(int(total))
	if _, err = io.ReadFull(r, buf); err != nil {
		return frameHeader{}, envelope{}, err
	}
	hdr.reqID = binary.BigEndian.Uint64(buf[0:8])
	hdr.flags = buf[8]
	if hdr.flags&^flagsKnown != 0 {
		return frameHeader{}, envelope{}, fmt.Errorf("cluster: unknown frame flags 0x%02x", hdr.flags&^flagsKnown)
	}
	kind := wire.MsgKind(buf[9])
	body := buf[rpcHeaderLen:]
	if hdr.flags&flagTrace != 0 {
		if len(body) < rpcTraceLen {
			return frameHeader{}, envelope{}, io.ErrUnexpectedEOF
		}
		hdr.traceID = binary.BigEndian.Uint64(body[:rpcTraceLen])
		body = body[rpcTraceLen:]
	}
	if hdr.flags&flagQoS != 0 {
		if len(body) < 2 {
			return frameHeader{}, envelope{}, io.ErrUnexpectedEOF
		}
		hdr.pri = Priority(body[0])
		tlen := int(body[1])
		body = body[2:]
		if len(body) < tlen {
			return frameHeader{}, envelope{}, io.ErrUnexpectedEOF
		}
		// The tenant must not alias the pooled read buffer.
		hdr.tenant = string(body[:tlen])
		body = body[tlen:]
	}
	payload, err := wire.Unmarshal(kind, body)
	if err != nil {
		return frameHeader{}, envelope{}, err
	}
	return hdr, envelope{payload: payload, size: len(body)}, nil
}
