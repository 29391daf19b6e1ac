package oran

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

func newDataPlane(t *testing.T) *DataPlane {
	t.Helper()
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDataPlane(tb)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func runPeriods(t *testing.T, dp *DataPlane, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := dp.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInProcessSubscription(t *testing.T) {
	dp := newDataPlane(t)
	ch, cancel := dp.Subscribe()
	defer cancel()
	runPeriods(t, dp, 3)
	for want := uint64(1); want <= 3; want++ {
		select {
		case r := <-ch:
			if r.Period != want {
				t.Fatalf("period %d, want %d", r.Period, want)
			}
			if r.BSPowerW <= 0 {
				t.Fatal("degenerate KPI")
			}
		case <-time.After(time.Second):
			t.Fatal("indication missing")
		}
	}
}

func TestSubscriptionCancelClosesChannel(t *testing.T) {
	dp := newDataPlane(t)
	ch, cancel := dp.Subscribe()
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after cancel")
	}
	// Publishing after cancel must not panic.
	runPeriods(t, dp, 1)
}

func TestSlowSubscriberDoesNotBlockDataPlane(t *testing.T) {
	dp := newDataPlane(t)
	_, cancel := dp.Subscribe() // never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		runPeriods(t, dp, 40) // more than the buffer size
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("data plane blocked on a slow subscriber")
	}
}

// End to end: the near-real-time flow of Fig. 7's database xApp — a
// subscriber fed by periods driven through the full control plane.
func TestSubscriptionThroughDeployment(t *testing.T) {
	d, _ := newDeployment(t, 5)
	ch, cancel := d.DataPlane.Subscribe()
	defer cancel()

	x := core.Control{Resolution: 0.82, Airtime: 1, GPUSpeed: 0.6, MCS: 1}
	if _, err := d.Env().Measure(x); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Period != 1 {
			t.Fatalf("indication period %d, want 1", r.Period)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no indication for a control-plane-driven period")
	}
}
