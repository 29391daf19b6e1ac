package oran

import (
	"testing"

	"repro/internal/ran"
	"repro/internal/testbed"
)

// TestKPIReportCountsPeriods: the vBS reading the E2 pull serves carries
// the number of RunPeriod calls so far, so a collector can tell a fresh
// reading from a repeated one.
func TestKPIReportCountsPeriods(t *testing.T) {
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDataPlane(tb)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		if _, err := dp.RunPeriod(); err != nil {
			t.Fatal(err)
		}
		r, err := dp.KPI()
		if err != nil {
			t.Fatal(err)
		}
		if r.Period != want {
			t.Fatalf("period %d, want %d", r.Period, want)
		}
		if r.BSPowerW <= 0 {
			t.Fatalf("degenerate KPI %+v", r)
		}
	}
}
