package oran

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Subscription message types (E2SM-KPM-style REPORT service).
const (
	TypeE2Subscribe   = "e2.subscribe"
	TypeE2KPIIndicate = "e2.kpi.indication"
)

// subscriptions is the publish side of the KPI REPORT service, embedded in
// the DataPlane: every completed period is pushed to all subscribers.
type subscriptions struct {
	mu   sync.Mutex
	next int
	subs map[int]chan KPIReport

	published *telemetry.Counter
	dropped   *telemetry.Counter
}

// instrument counts published and dropped indications; nil handles are
// no-ops, so an uninstrumented publish path is unchanged.
func (s *subscriptions) instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.published = reg.Counter("edgebol_oran_indications_published_total")
	s.dropped = reg.Counter("edgebol_oran_indications_dropped_total")
}

// subscribe registers a subscriber with a small buffer.
func (s *subscriptions) subscribe() (int, <-chan KPIReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs == nil {
		s.subs = make(map[int]chan KPIReport)
	}
	id := s.next
	s.next++
	ch := make(chan KPIReport, 16)
	s.subs[id] = ch
	return id, ch
}

// unsubscribe removes a subscriber.
func (s *subscriptions) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.subs[id]; ok {
		delete(s.subs, id)
		close(ch)
	}
}

// publish fans a report out without blocking: a stalled subscriber drops
// indications rather than stalling the data plane.
func (s *subscriptions) publish(r KPIReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.subs {
		select {
		case ch <- r:
			s.published.Inc()
		default:
			// A stalled subscriber loses indications instead of stalling
			// the data plane; the drop counter makes that visible.
			s.dropped.Inc()
		}
	}
}

// Subscribe registers an in-process KPI subscriber on the data plane.
// Every RunPeriod publishes one report. Close the subscription with the
// returned cancel function.
func (d *DataPlane) Subscribe() (<-chan KPIReport, func()) {
	id, ch := d.subs.subscribe()
	return ch, func() { d.subs.unsubscribe(id) }
}

// KPIStreamServer is the network side of the REPORT service: a TCP
// endpoint on the E2 node where a peer sends one e2.subscribe frame and
// then receives e2.kpi.indication frames for every control period until it
// disconnects.
type KPIStreamServer struct {
	ln net.Listener
	dp *DataPlane

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	// done unblocks serve goroutines waiting on idle subscription
	// channels during Close; without it, Close would deadlock on any
	// subscriber with no in-flight indications.
	done chan struct{}
}

// NewKPIStreamServer starts the REPORT endpoint on addr.
func NewKPIStreamServer(addr string, dp *DataPlane) (*KPIStreamServer, error) {
	if dp == nil {
		return nil, fmt.Errorf("oran: nil data plane")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("oran: listen %s: %w", addr, err)
	}
	s := &KPIStreamServer{ln: ln, dp: dp, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the endpoint address.
func (s *KPIStreamServer) Addr() string { return s.ln.Addr().String() }

func (s *KPIStreamServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
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
		go s.serve(conn)
	}
}

func (s *KPIStreamServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // subscriber teardown; the stream is already over
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	req, err := ReadFrame(conn)
	if err != nil || req.Type != TypeE2Subscribe {
		return
	}
	ack, err := NewMessage(TypeAck, Ack{OK: true})
	if err != nil {
		return
	}
	// Register with the data plane before acknowledging: a subscriber that
	// has its ack must receive every indication published after it.
	ch, cancel := s.dp.Subscribe()
	defer cancel()
	if err := WriteFrame(conn, ack); err != nil {
		return
	}
	// A read loop in the background turns a peer disconnect into a conn
	// error immediately, so an idle subscriber's departure is noticed.
	peerGone := make(chan struct{})
	go func() {
		defer close(peerGone)
		for {
			if _, err := ReadFrame(conn); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case report, ok := <-ch:
			if !ok {
				return
			}
			msg, err := NewMessage(TypeE2KPIIndicate, report)
			if err != nil {
				return
			}
			if err := WriteFrame(conn, msg); err != nil {
				return
			}
		case <-peerGone:
			return
		case <-s.done:
			return
		}
	}
}

// Close stops the endpoint and disconnects subscribers.
func (s *KPIStreamServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.ln.Close()
	for c := range s.conns {
		_ = c.Close() // forced disconnect; the listener error is the result
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// SubscribeKPIs dials a KPIStreamServer and returns a channel of
// indications. The channel closes when the connection drops; call the
// returned cancel function to disconnect.
func SubscribeKPIs(addr string, timeout time.Duration) (<-chan KPIReport, func(), error) {
	return SubscribeKPIsContext(context.Background(), addr, timeout)
}

// SubscribeKPIsContext is SubscribeKPIs with the dial and the stream's
// lifetime bounded by ctx: cancellation disconnects the subscription and
// closes the returned channel.
func SubscribeKPIsContext(ctx context.Context, addr string, timeout time.Duration) (<-chan KPIReport, func(), error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("oran: dial %s: %w", addr, err)
	}
	req := Message{Type: TypeE2Subscribe}
	if err := WriteFrame(conn, req); err != nil {
		_ = conn.Close() // subscribe failed; report the write error
		return nil, nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("oran: set ack deadline: %w", err)
	}
	ack, err := ReadFrame(conn)
	if err != nil || ack.Error != "" {
		_ = conn.Close() // subscribe failed; report the ack error
		return nil, nil, fmt.Errorf("oran: subscribe failed: %v %s", err, ack.Error)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("oran: clear ack deadline: %w", err)
	}
	out := make(chan KPIReport, 16)
	// Cancellation closes the conn, which unblocks the reader and closes
	// the channel — the same teardown path as an explicit cancel call.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	//edgebol:allow ctxleak -- reader observes cancellation through the AfterFunc above closing the conn
	go func() {
		defer stop()
		defer close(out)
		defer func() { _ = conn.Close() }() // reader exit closes the stream
		for {
			msg, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if msg.Type != TypeE2KPIIndicate {
				continue
			}
			var r KPIReport
			if err := msg.Decode(&r); err != nil {
				return
			}
			out <- r
		}
	}()
	cancel := func() { _ = conn.Close() } // cancel is best-effort by contract
	return out, cancel, nil
}
