package oran

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// raceEnv is a concurrency-safe stub environment: the race regression
// test hammers the transport and data-plane layers, not the testbed.
type raceEnv struct {
	mu      sync.Mutex
	periods int
}

func (e *raceEnv) Context() core.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	return core.Context{NumUsers: 1, MeanCQI: 12, VarCQI: 1}
}

func (e *raceEnv) Measure(x core.Control) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	e.mu.Lock()
	e.periods++
	e.mu.Unlock()
	return core.KPIs{Delay: 0.2, GPUDelay: 0.1, MAP: 0.6, ServerPower: 80, BSPower: 30}, nil
}

// TestRaceConcurrentPeriodsAndShutdown is the -race regression for the
// O-RAN concurrency surface: concurrent control periods and KPI pulls,
// policy mutators, TCP callers driving periods through a service
// controller, and finally a server shutdown racing in-flight calls. It has
// no assertions beyond completing without deadlock — its job is to give
// the race detector interleavings to chew on.
func TestRaceConcurrentPeriodsAndShutdown(t *testing.T) {
	dp, err := NewDataPlane(&raceEnv{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServiceController("127.0.0.1:0", dp)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewMessage(TypeServiceConfig, ServiceConfig{Resolution: 0.5, GPUSpeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	period := Message{Type: TypeServicePeriod}

	const (
		runners  = 4
		periods  = 25
		callers  = 3
		mutators = 2
	)
	var wg sync.WaitGroup

	// Runners: concurrent control periods, each followed by the E2 pull
	// of the vBS reading it kept.
	for p := 0; p < runners; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < periods; i++ {
				if _, err := dp.RunPeriod(); err != nil {
					t.Errorf("RunPeriod: %v", err)
					return
				}
				if _, err := dp.KPI(); err != nil {
					t.Errorf("KPI: %v", err)
					return
				}
			}
		}()
	}

	// Policy mutators: stage radio/service changes mid-stream.
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < periods; i++ {
				air := 0.5 + 0.5*float64((i+m)%2)
				if err := dp.SetRadio(RadioPolicy{Airtime: air, MCS: 1}); err != nil {
					t.Errorf("SetRadio: %v", err)
					return
				}
				if err := dp.SetService(ServiceConfig{Resolution: 0.5 + 0.25*float64(i%3), GPUSpeed: 1}); err != nil {
					t.Errorf("SetService: %v", err)
					return
				}
			}
		}(m)
	}

	// TCP callers: configure and run periods over the custom interface.
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(context.Background(), svc.Addr(), 2*time.Second)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < periods; i++ {
				for _, req := range []Message{cfg, period} {
					if _, err := cl.Call(context.Background(), req); err != nil {
						t.Errorf("Call %s: %v", req.Type, err)
						return
					}
				}
			}
		}()
	}

	wg.Wait()

	// Shutdown racing one last burst of periods and callers with
	// requests in flight: each caller answers ready after its first
	// period, then keeps calling until the closed server refuses it.
	var tail, ready sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		for i := 0; i < periods; i++ {
			if _, err := dp.RunPeriod(); err != nil {
				t.Errorf("RunPeriod during shutdown: %v", err)
				return
			}
		}
	}()
	for c := 0; c < callers; c++ {
		tail.Add(1)
		ready.Add(1)
		go func() {
			defer tail.Done()
			cl, err := Dial(context.Background(), svc.Addr(), 2*time.Second)
			if err != nil {
				ready.Done()
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; ; i++ {
				_, err := cl.Call(context.Background(), period)
				if i == 0 {
					ready.Done()
				}
				if err != nil {
					return
				}
			}
		}()
	}
	ready.Wait()
	if err := svc.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	tail.Wait()

	// Idempotent close must stay clean after everything settled.
	if err := svc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
