package oran

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// restartServer closes s and brings a fresh Server up on the same address,
// retrying briefly in case the kernel has not released the port yet.
func restartServer(t *testing.T, s *Server, handler Handler) *Server {
	t.Helper()
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var (
		next *Server
		err  error
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		next, err = NewServer(addr, handler)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { next.Close() })
	return next
}

// TestClientSurvivesServerRestart covers the full-restart case (not just a
// dropped connection): the server process goes away entirely and comes back
// on the same address. The client's next call must transparently redial,
// the reconnect counter must record the event, and subsequent calls must
// behave as if nothing happened.
func TestClientSurvivesServerRestart(t *testing.T) {
	echo := func(m Message) (Message, error) { return m, nil }
	s, err := NewServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "svc")

	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	restartServer(t, s, echo)
	// The first call after the restart rides the dead connection, fails,
	// and must recover by redialing the (new) server at the old address.
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatalf("call across server restart: %v", err)
	}
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatalf("steady-state call after reconnect: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`edgebol_oran_reconnects_total{iface="svc"}`]; got != 1 {
		t.Fatalf("reconnect counter %d, want 1", got)
	}
	if got := snap.Counters[`edgebol_oran_requests_total{iface="svc"}`]; got != 3 {
		t.Fatalf("request counter %d, want 3", got)
	}
}

// TestRestartLeavesNoGoroutines churns a client through a server restart,
// tears everything down, and insists the goroutine count returns to its
// baseline — the reconnect path must not leak reader loops.
func TestRestartLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		echo := func(m Message) (Message, error) { return m, nil }
		s, err := NewServer("127.0.0.1:0", echo)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
		s2 := restartServer(t, s, echo)
		if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	// Teardown is asynchronous (reader loops unwind on close); poll with a
	// deadline instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after teardown", runtime.NumGoroutine(), base)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
