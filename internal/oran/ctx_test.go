package oran

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// slowEchoServer starts a server whose handler stalls, for exercising the
// in-flight cancellation path.
func slowEchoServer(t *testing.T, delay time.Duration) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", func(req Message) (Message, error) {
		time.Sleep(delay)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestCallCtxCanceledUpfront(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(context.Background(), s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, Message{Type: "ping"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCallCtxAbortsInFlightRequest(t *testing.T) {
	s := slowEchoServer(t, 2*time.Second)
	c, err := Dial(context.Background(), s.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, Message{Type: "ping"})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %s, the request timeout dominated", elapsed)
	}
}

func TestClientInstrumentation(t *testing.T) {
	s := echoServer(t)
	s.Instrument(telemetry.NewRegistry(), "ignored") // separate registry: server counters not under test here
	c, err := Dial(context.Background(), s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "e2")
	for i := 0; i < 4; i++ {
		if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`edgebol_oran_requests_total{iface="e2"}`]; got != 4 {
		t.Fatalf("requests counter %d", got)
	}
	if got := snap.Histograms[`edgebol_oran_request_seconds{iface="e2"}`].Count; got != 4 {
		t.Fatalf("latency histogram count %d", got)
	}
	if got := snap.Counters[`edgebol_oran_request_errors_total{iface="e2"}`]; got != 0 {
		t.Fatalf("spurious errors %d", got)
	}
}

func TestClientReconnectCounter(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(context.Background(), s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "svc")
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	// Break the client's connection underneath it; the next call must
	// reconnect transparently and count the event.
	_ = c.conn.Close()
	if _, err := c.Call(context.Background(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`edgebol_oran_reconnects_total{iface="svc"}`]; got != 1 {
		t.Fatalf("reconnect counter %d", got)
	}
	if got := snap.Counters[`edgebol_oran_request_errors_total{iface="svc"}`]; got != 1 {
		t.Fatalf("error counter %d", got)
	}
}

func TestDeployTimeoutDefaults(t *testing.T) {
	// The zero DeployOptions must be usable: default timeout, no metrics.
	if DefaultTimeout <= 0 {
		t.Fatal("DefaultTimeout must be positive")
	}
}
