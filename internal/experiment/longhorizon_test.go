package experiment

import "testing"

// TestLongHorizonScaledDown runs the t≥10⁴ scenario at a test-sized
// horizon: the agent runs sparse from period 0, the table carries one row
// per bucket, every bucket's basis stays within budget, and every
// VerifyLongHorizon check passes.
func TestLongHorizonScaledDown(t *testing.T) {
	cfg := LongHorizonConfig{Periods: 360, InducingPoints: 48, Buckets: 12}
	tab, err := LongHorizon(tinyScale(), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != cfg.Buckets {
		t.Fatalf("%d rows, want %d buckets", len(tab.Rows), cfg.Buckets)
	}
	inducing, err := column(tab, "inducing", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range inducing {
		if v <= 0 || v > 48 {
			t.Fatalf("bucket %d: basis %v outside (0, 48]", i, v)
		}
	}
	checks, err := VerifyLongHorizon(tab, cfg.InducingPoints)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 4 {
		t.Fatalf("only %d checks emitted", len(checks))
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("check failed: %s: %s (%s)", c.Figure, c.Claim, c.Detail)
		}
	}
}

func TestLongHorizonRejectsDegenerateHorizon(t *testing.T) {
	if _, err := LongHorizon(tinyScale(), LongHorizonConfig{Periods: 1}, 3); err == nil {
		t.Fatal("degenerate horizon accepted")
	}
}
