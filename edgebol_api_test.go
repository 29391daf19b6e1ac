package edgebol

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/oran"
)

// These tests exercise the repository's public facade the way an external
// adopter would: build the testbed, run the agent, consult the oracle, and
// drive the loop over the O-RAN control plane.

func TestFacadeQuickstartFlow(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig(), []User{{SNRdB: 35}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(Options{
		Grid:        GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var k KPIs
	for i := 0; i < 25; i++ {
		_, k, _, err = agent.Step(tb)
		if err != nil {
			t.Fatal(err)
		}
	}
	if k.Delay <= 0 || k.ServerPower <= 0 {
		t.Fatalf("degenerate KPIs %+v", k)
	}
	if agent.Observations() != 25 {
		t.Fatalf("agent saw %d observations", agent.Observations())
	}
}

func TestFacadeDefaults(t *testing.T) {
	if DefaultGridSpec().Size() != 14641 {
		t.Fatal("default grid must match the paper's 11^4 control space")
	}
	n := DefaultNormalization(CostWeights{Delta1: 1, Delta2: 1})
	if n.Cost.Scale <= 0 {
		t.Fatal("default normalization broken")
	}
	if len(HeterogeneousUsers(4)) != 4 {
		t.Fatal("HeterogeneousUsers wrong length")
	}
	if QuickScale().GridLevels >= PaperScale().GridLevels {
		t.Fatal("quick scale should be coarser than paper scale")
	}
}

func TestFacadeOracle(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig(), []User{{SNRdB: 35}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1}
	x, cost, err := Oracle(tb.Expected, grid, CostWeights{Delta1: 1, Delta2: 1},
		Constraints{MaxDelay: 0.4, MinMAP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("oracle cost %v", cost)
	}
}

func TestFacadeDDPG(t *testing.T) {
	d, err := NewDDPG(DDPGOptions{
		Grid:        GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: Constraints{MaxDelay: 0.5, MinMAP: 0.4},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := d.Select(Context{NumUsers: 1, MeanCQI: 15})
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeORANDeployment(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig(), []User{{SNRdB: 35}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	dep, err = Deploy(context.Background(), tb, DeployOptions{Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	var env Environment = dep.Env()
	k, err := env.Measure(Control{Resolution: 0.8, Airtime: 1, GPUSpeed: 0.8, MCS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.BSPower <= 0 {
		t.Fatal("no KPI over the control plane")
	}
	// KPI subscriptions are reachable through the deployment too.
	ch, cancel := dep.DataPlane.Subscribe()
	defer cancel()
	if _, err := env.Measure(Control{Resolution: 0.8, Airtime: 1, GPUSpeed: 0.8, MCS: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		var _ oran.KPIReport = r
	case <-time.After(2 * time.Second):
		t.Fatal("no KPI indication")
	}
}

// TestFacadeCheckpointRoundTrip exercises the warm-restart surface the way
// an adopter would: run, snapshot, kill, resume, and verify the resumed
// agent picks up bitwise where the interrupted one stopped.
func TestFacadeCheckpointRoundTrip(t *testing.T) {
	opts := Options{
		Grid:        GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	}
	tb, err := NewTestbed(DefaultTestbedConfig(), []User{{SNRdB: 35}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, _, err := agent.Step(tb); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(agent, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	info, err := ReadCheckpointInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Periods != 10 || len(info.Objectives) == 0 {
		t.Fatalf("checkpoint info %+v", info)
	}

	restored, err := LoadCheckpoint(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Observations() != 10 {
		t.Fatalf("restored at %d observations", restored.Observations())
	}
	ctx := tb.Context()
	x1, _ := agent.SelectControl(ctx)
	x2, _ := restored.SelectControl(ctx)
	if x1 != x2 {
		t.Fatalf("restored selection %+v != live %+v", x2, x1)
	}

	// Mismatched fixed configuration must be rejected with the sentinel.
	bad := opts
	bad.Grid.Levels = 5
	if _, err := LoadCheckpoint(bytes.NewReader(raw), bad); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("mismatched load err = %v, want ErrCheckpointMismatch", err)
	}

	// The typed reconfiguration error is part of the facade too.
	var re *ErrInvalidReconfig
	if err := restored.SetConstraints(Constraints{MaxDelay: -1, MinMAP: 0.5}); !errors.As(err, &re) {
		t.Fatalf("SetConstraints err = %v, want *ErrInvalidReconfig", err)
	}
}

// TestFacadeFleet drives the fleet orchestration surface end to end the
// way an adopter would: validate options, deploy a small fleet, step it,
// admit a warm-started joiner, and read the roll-up summary.
func TestFacadeFleet(t *testing.T) {
	slice := SliceConfig{
		Name:          "svc",
		AirtimeBudget: 0.9,
		GPUShare:      0.9,
		Users:         []User{{SNRdB: 35}},
		Weights:       CostWeights{Delta1: 1, Delta2: 1},
		Constraints:   Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	}
	opts := FleetOptions{
		Cells:     FleetCells(2, slice),
		Agent:     Options{Grid: GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1}},
		BaseSeed:  3,
		WarmStart: WarmStartPolicy{Neighbors: 2},
	}
	// Typed validation errors surface through the facade.
	bad := opts
	bad.Workers = -1
	var oe *FleetOptionError
	if err := bad.Validate(); !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Fatalf("want *FleetOptionError naming Workers, got %v", err)
	}
	f, err := NewFleet(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	for p := 0; p < 4; p++ {
		res, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("period returned %d cell results", len(res))
		}
	}
	joiner := slice
	joiner.Name = "joiner"
	cell, seeded, err := f.AddCell(context.Background(), FleetCellConfig{Name: "joiner", Slice: joiner})
	if err != nil {
		t.Fatal(err)
	}
	if seeded == 0 {
		t.Fatal("joiner was not warm-started")
	}
	if cell.Agent.Observations() != seeded {
		t.Fatalf("joiner observations %d != seeded %d", cell.Agent.Observations(), seeded)
	}
	sum := f.Summary()
	if sum.Cells != 3 || sum.Periods != 4 || sum.TotalCost <= 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestFacadeWarmStartEquivalence pins the facade-level warm-start
// contract: WarmStart-seeded agents select bitwise identically to agents
// that observed the pooled history directly.
func TestFacadeWarmStartEquivalence(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig(), []User{{SNRdB: 35}}, 21)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Grid:        GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	}
	donor, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 15; p++ {
		if _, _, _, err := donor.Step(tb); err != nil {
			t.Fatal(err)
		}
	}
	pool := donor.History(0)
	warm, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WarmStart(warm, tb.Context(), []WarmStartDonor{{Context: tb.Context(), History: pool}},
		WarmStartPolicy{Neighbors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pool) {
		t.Fatalf("seeded %d of %d pooled samples", n, len(pool))
	}
	direct, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.SeedHistory(pool); err != nil {
		t.Fatal(err)
	}
	xw, _ := warm.SelectControl(tb.Context())
	xd, _ := direct.SelectControl(tb.Context())
	if xw != xd {
		t.Fatalf("warm-started selection %+v != directly seeded %+v", xw, xd)
	}
	var bw, bd bytes.Buffer
	if err := SaveCheckpoint(warm, &bw); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(direct, &bd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bw.Bytes(), bd.Bytes()) {
		t.Fatal("warm-start checkpoint bytes diverge")
	}
}
