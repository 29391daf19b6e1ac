package oran

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

func TestFrameRoundTrip(t *testing.T) {
	msg, err := NewMessage("test.echo", RadioPolicy{PolicyID: "p1", Airtime: 0.5, MCS: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "test.echo" {
		t.Fatalf("type %q, want test.echo", got.Type)
	}
	var p RadioPolicy
	if err := got.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.PolicyID != "p1" || p.Airtime != 0.5 || p.MCS != 0.8 {
		t.Fatalf("payload corrupted: %+v", p)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	buf.Write(hdr[:])
	if _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 4)
	buf.Write(hdr[:])
	buf.WriteString("!!!!")
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected decode error for garbage body")
	}
}

func TestDecodePeerError(t *testing.T) {
	m := Message{Type: "x", Error: "boom"}
	var dst Ack
	if err := m.Decode(&dst); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected peer error, got %v", err)
	}
}

func echoServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", func(m Message) (Message, error) {
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestClientServerCall(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req, _ := NewMessage("ping", Ack{OK: true})
	resp, err := c.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != "ping" {
		t.Fatalf("echo type %q", resp.Type)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := echoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				req, _ := NewMessage("ping", Ack{OK: true})
				if _, err := c.Call(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerHandlerError(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", func(m Message) (Message, error) {
		return Message{}, &timeoutError{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), Message{Type: "x"}); err == nil {
		t.Fatal("expected handler error to propagate")
	}
}

type timeoutError struct{}

func (*timeoutError) Error() string { return "synthetic failure" }

func TestClientReconnects(t *testing.T) {
	s := echoServer(t)
	c, err := Dial(context.Background(), s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Break the connection under the client.
	c.conn.Close()
	req, _ := NewMessage("ping", Ack{OK: true})
	if _, err := c.Call(context.Background(), req); err != nil {
		t.Fatalf("client should redial once: %v", err)
	}
}

func newDeployment(t *testing.T, seed int64) (*Deployment, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(context.Background(), tb, DeployOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, tb
}

func TestDataPlaneValidation(t *testing.T) {
	if _, err := NewDataPlane(nil); err == nil {
		t.Fatal("expected error for nil environment")
	}
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDataPlane(tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.SetRadio(RadioPolicy{Airtime: 0, MCS: 0.5}); err == nil {
		t.Fatal("expected error for zero airtime")
	}
	if err := dp.SetService(ServiceConfig{Resolution: 2, GPUSpeed: 0.5}); err == nil {
		t.Fatal("expected error for resolution > 1")
	}
	if _, err := dp.KPI(); err == nil {
		t.Fatal("expected error before any period ran")
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	d, _ := newDeployment(t, 7)
	env := d.Env()
	ctx := env.Context()
	if ctx.NumUsers != 1 || ctx.MeanCQI != 15 {
		t.Fatalf("context over O1 wrong: %+v", ctx)
	}
	x := core.Control{Resolution: 0.82, Airtime: 1, GPUSpeed: 0.6, MCS: 1}
	k, err := env.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	if k.Delay <= 0 || k.MAP <= 0 || k.ServerPower <= 0 || k.BSPower <= 0 {
		t.Fatalf("degenerate KPIs over the stack: %+v", k)
	}
}

// The control plane must be a pure transport: KPIs measured through the
// full A1/E2/O1 round trip must equal a direct testbed measurement with
// the same seed and the same sequence of controls, split-inference
// controls included.
func TestDeploymentTransparent(t *testing.T) {
	d, _ := newDeployment(t, 11)
	direct, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	env := d.Env()
	controls := []core.Control{
		{Resolution: 1, Airtime: 1, GPUSpeed: 1, MCS: 1},
		{Resolution: 0.5, Airtime: 0.6, GPUSpeed: 0.3, MCS: 0.8},
		{Resolution: 0.82, Airtime: 0.9, GPUSpeed: 0.7, MCS: 0.4},
		{Resolution: 1, Airtime: 1, GPUSpeed: 1, MCS: 1, SplitLayer: 0.4},
		{Resolution: 0.5, Airtime: 0.6, GPUSpeed: 0.3, MCS: 0.8, SplitLayer: 1},
	}
	for i, x := range controls {
		got, err := env.Measure(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Measure(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("control %d: stack KPIs %+v != direct %+v", i, got, want)
		}
	}
}

func TestMeasureRejectsInvalidControl(t *testing.T) {
	d, _ := newDeployment(t, 13)
	if _, err := d.Env().Measure(core.Control{}); err == nil {
		t.Fatal("expected validation error")
	}
}

// EdgeBOL must be able to learn across the real control plane exactly as it
// does against the direct testbed.
func TestEdgeBOLOverControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("control-plane learning test skipped in -short mode")
	}
	d, _ := newDeployment(t, 17)
	agent, err := core.NewAgent(core.Options{
		Grid:        core.GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     core.CostWeights{Delta1: 1, Delta2: 1},
		Constraints: core.Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := d.Env()
	var lastInfo core.SelectionInfo
	for i := 0; i < 30; i++ {
		_, _, info, err := agent.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		lastInfo = info
	}
	if agent.Observations() != 30 {
		t.Fatalf("agent recorded %d observations", agent.Observations())
	}
	if lastInfo.SafeSetSize < 1 {
		t.Fatal("safe set collapsed over the control plane")
	}
}
