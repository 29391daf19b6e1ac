// Package oran implements the control plane of Fig. 7 as real network
// components over loopback TCP: a non-RT RIC hosting the EdgeBOL rApps
// (policy service and data collector), a near-RT RIC hosting the xApps
// (A1-P termination, E2 client, KPI database), an E2 node on the vBS, and
// the custom interface to the edge service controller.
//
// Interfaces are message-oriented: length-prefixed JSON frames on
// persistent TCP connections, request/response per message. The framing is
// deliberately simple — the goal is an honest end-to-end code path (policy
// out over A1→E2, KPIs back over E2→O1), not a byte-exact O-RAN ASN.1
// stack.
package oran

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// MaxFrameSize bounds a single message to keep a misbehaving peer from
// forcing unbounded allocation.
const MaxFrameSize = 1 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("oran: frame exceeds MaxFrameSize")

// Message is the envelope of every frame: a type tag and a JSON payload.
type Message struct {
	// Type routes the message (e.g. "a1.policy", "e2.kpi").
	Type string `json:"type"`
	// Payload carries the type-specific body.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error is set on responses that failed.
	Error string `json:"error,omitempty"`
}

// NewMessage marshals body into a Message of the given type.
func NewMessage(msgType string, body any) (Message, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return Message{}, fmt.Errorf("oran: marshal %s: %w", msgType, err)
	}
	return Message{Type: msgType, Payload: raw}, nil
}

// Decode unmarshals the payload into dst.
func (m Message) Decode(dst any) error {
	if m.Error != "" {
		return fmt.Errorf("oran: peer error: %s", m.Error)
	}
	if err := json.Unmarshal(m.Payload, dst); err != nil {
		return fmt.Errorf("oran: decode %s: %w", m.Type, err)
	}
	return nil
}

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, m Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("oran: encode frame: %w", err)
	}
	if len(body) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("oran: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("oran: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message.
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return Message{}, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("oran: read frame body: %w", err)
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return Message{}, fmt.Errorf("oran: decode frame: %w", err)
	}
	return m, nil
}

// Handler processes one request message and produces a response.
type Handler func(Message) (Message, error)

// serverMetrics counts handled messages per interface; a nil pointer is a
// no-op so uninstrumented servers pay only a nil check per frame.
type serverMetrics struct {
	reg   *telemetry.Registry
	iface string
}

func (m *serverMetrics) message(msgType string, failed bool) {
	if m == nil {
		return
	}
	m.reg.Counter("edgebol_oran_messages_total", "iface", m.iface, "type", msgType).Inc()
	if failed {
		m.reg.Counter("edgebol_oran_handler_errors_total", "iface", m.iface).Inc()
	}
}

// Server is a minimal request/response TCP server: each inbound frame is
// answered with exactly one frame. Connections are handled concurrently;
// frames within a connection are processed in order.
type Server struct {
	ln      net.Listener
	handler Handler
	// met is swapped atomically: Instrument may race with connections that
	// arrived between NewServer and the Instrument call.
	met atomic.Pointer[serverMetrics]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewServer starts a server on addr (use "127.0.0.1:0" for an ephemeral
// loopback port).
func NewServer(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, fmt.Errorf("oran: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("oran: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Instrument counts handled messages in reg under the given interface
// label (edgebol_oran_messages_total{iface,type} and
// edgebol_oran_handler_errors_total{iface}). Call it before the server
// receives traffic; a nil registry leaves the server uninstrumented.
func (s *Server) Instrument(reg *telemetry.Registry, iface string) {
	if reg == nil {
		return
	}
	s.met.Store(&serverMetrics{reg: reg, iface: iface})
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // shutting down; nothing to report to
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // connection teardown; the read loop already ended
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		req, err := ReadFrame(conn)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		resp, err := s.handler(req)
		s.met.Load().message(req.Type, err != nil)
		if err != nil {
			resp = Message{Type: req.Type + ".error", Error: err.Error()}
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close() // forced disconnect; the listener error is the result
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// clientMetrics holds the per-interface request instrumentation; all
// fields are nil-safe no-ops when the client is uninstrumented.
type clientMetrics struct {
	requests   *telemetry.Counter
	errors     *telemetry.Counter
	reconnects *telemetry.Counter
	timeouts   *telemetry.Counter
	latency    *telemetry.Histogram
}

// Client is a synchronous request/response client over one TCP connection.
// It is safe for concurrent use; requests are serialized.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	addr    string
	timeout time.Duration
	met     clientMetrics
}

// Dial connects a client to addr with the given per-request timeout,
// aborting the connection attempt when ctx is canceled. The timeout still
// bounds every individual request.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("oran: non-positive timeout")
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("oran: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, addr: addr, timeout: timeout}, nil
}

// Instrument publishes the client's request metrics into reg under the
// given interface label: edgebol_oran_requests_total,
// edgebol_oran_request_errors_total, edgebol_oran_reconnects_total,
// edgebol_oran_timeouts_total, and the edgebol_oran_request_seconds
// latency histogram, each with {iface}. Call it before issuing requests;
// a nil registry leaves the client uninstrumented.
func (c *Client) Instrument(reg *telemetry.Registry, iface string) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = clientMetrics{
		requests:   reg.Counter("edgebol_oran_requests_total", "iface", iface),
		errors:     reg.Counter("edgebol_oran_request_errors_total", "iface", iface),
		reconnects: reg.Counter("edgebol_oran_reconnects_total", "iface", iface),
		timeouts:   reg.Counter("edgebol_oran_timeouts_total", "iface", iface),
		latency:    reg.Histogram("edgebol_oran_request_seconds", telemetry.LatencyBuckets(), "iface", iface),
	}
}

// Call sends a request and waits for the response. On a broken connection
// it redials once before failing. Cancellation of ctx aborts an in-flight
// request by force-closing the connection (a partial frame would poison
// the stream anyway; the next call redials), and no reconnect is
// attempted once ctx is done.
func (c *Client) Call(ctx context.Context, req Message) (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	c.met.requests.Inc()
	start := time.Now()
	resp, err := c.callLocked(ctx, req)
	if err == nil {
		c.met.latency.ObserveDuration(time.Since(start))
		return resp, nil
	}
	c.noteError(err)
	if ctx.Err() != nil {
		return resp, err
	}
	// One reconnect attempt: control-plane endpoints restart in practice.
	d := net.Dialer{Timeout: c.timeout}
	//edgebol:allow lockhold -- reconnect dial is timeout- and ctx-bounded; the client serializes calls under mu by design
	conn, dialErr := d.DialContext(ctx, "tcp", c.addr)
	if dialErr != nil {
		return Message{}, err
	}
	c.met.reconnects.Inc()
	_ = c.conn.Close() // replacing a conn that already failed
	c.conn = conn
	resp, err = c.callLocked(ctx, req)
	if err != nil {
		c.noteError(err)
		return resp, err
	}
	c.met.latency.ObserveDuration(time.Since(start))
	return resp, nil
}

// noteError classifies a failed request for the error counters.
func (c *Client) noteError(err error) {
	c.met.errors.Inc()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.met.timeouts.Inc()
	}
}

func (c *Client) callLocked(ctx context.Context, req Message) (Message, error) {
	conn := c.conn
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return Message{}, err
	}
	// Cancellation must unblock the in-flight read, so the abort closes the
	// captured conn from the AfterFunc goroutine; callLocked's caller holds
	// c.mu, which is why the callback touches only the local variable.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	if err := WriteFrame(conn, req); err != nil {
		return Message{}, err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Message{}, cerr
		}
		return Message{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("oran: %s: %s", resp.Type, resp.Error)
	}
	return resp, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
