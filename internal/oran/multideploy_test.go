package oran

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// fullControl is a valid joint policy for driving one period.
func fullControl() core.Control {
	return core.Control{Resolution: 0.8, Airtime: 1, GPUSpeed: 0.8, MCS: 1}
}

// TestConcurrentDeployments brings up many control planes at once — the
// fleet pattern — and checks they never collide: every endpoint is
// distinct, every stack measures its own substrate, concurrent teardown
// is clean, and no goroutines leak once all deployments are closed.
func TestConcurrentDeployments(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const n = 8
	type slot struct {
		dep *Deployment
		err error
	}
	slots := make([]slot, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, int64(100+i))
			if err != nil {
				slots[i].err = err
				return
			}
			dep, err := Deploy(context.Background(), tb, DeployOptions{Timeout: 3 * time.Second})
			if err != nil {
				slots[i].err = err
				return
			}
			slots[i].dep = dep
			// Drive a period through the full A1/E2/O1 round trip so the
			// stacks are concurrently active, not just concurrently idle.
			env := dep.Env()
			if _, err := env.Measure(fullControl()); err != nil {
				slots[i].err = fmt.Errorf("deployment %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()

	addrs := make(map[string]int)
	for i, s := range slots {
		if s.err != nil {
			t.Fatal(s.err)
		}
		for _, addr := range []string{
			s.dep.E2Node.Addr(),
			s.dep.ServiceCtl.Addr(),
			s.dep.NearRT.Addr(),
		} {
			if addr == "" {
				t.Fatalf("deployment %d has an unbound endpoint", i)
			}
			if prev, dup := addrs[addr]; dup {
				t.Fatalf("deployments %d and %d share endpoint %s", prev, i, addr)
			}
			addrs[addr] = i
		}
		// Each deployment keeps its own registry (none shared here).
		if s.dep.Registry() != nil {
			t.Fatalf("deployment %d grew a registry no caller supplied", i)
		}
	}

	// Concurrent teardown must be as clean as concurrent bring-up.
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := slots[i].dep.Close(); err != nil {
				t.Errorf("deployment %d close: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Every goroutine the stacks spawned (accept loops, connection
	// handlers, context watchers) must exit. Poll briefly:
	// handler goroutines unwind asynchronously after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentDeploymentsSharedRegistry is the fleet telemetry shape:
// many deployments instrumenting one registry concurrently. The labeled
// request counters must aggregate without panicking on re-registration.
func TestConcurrentDeploymentsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	const n = 4
	deps := make([]*Deployment, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, int64(200+i))
			if err != nil {
				errs[i] = err
				return
			}
			dep, err := Deploy(context.Background(), tb, DeployOptions{Timeout: 3 * time.Second, Telemetry: reg})
			if err != nil {
				errs[i] = err
				return
			}
			deps[i] = dep
			if _, err := dep.Env().Measure(fullControl()); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deployment %d: %v", i, err)
		}
	}
	defer func() {
		for _, d := range deps {
			_ = d.Close()
		}
	}()
	snap := reg.Snapshot()
	if got := snap.Counters[`edgebol_oran_requests_total{iface="a1"}`]; got < n {
		t.Fatalf("shared A1 counter %d, want >= %d (one per deployment's period)", got, n)
	}
}
