package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/multislice"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// FleetWarmStart measures the value of cross-cell knowledge transfer: a
// donor fleet of scale.Cells cells (heterogeneous radio conditions, one
// O-RAN stack each) learns for scale.Periods periods, then a new cell
// joins twice — once warm-started from its scale.WarmStartNeighbors most
// context-similar donors (fleet.WarmStart) and once cold, on an identical
// twin environment — and the scenario counts each joiner's periods to
// safe convergence.
//
// "Safe convergence" is the first period in which the agent picks a
// *learned* control (not a fallback to the safe seed set S₀) that
// satisfies both service constraints. The raw first-satisfied period
// would be a degenerate metric: the safe seeds are maximum-resource
// configurations that usually satisfy the constraints immediately, so
// every cold start would look instantly "converged" while still burning
// maximum power.
//
// One table row per repetition: the cold and warm convergence periods
// (scale.Periods+1 when the horizon ran out), the pooled-sample count,
// and the donor-fleet size.
func FleetWarmStart(scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	cells := scale.Cells
	if cells == 0 {
		cells = 3
	}
	neighbors := scale.WarmStartNeighbors
	if neighbors == 0 {
		neighbors = min(2, cells)
	}
	t := &Table{
		ID:    "fleetwarm",
		Title: "Fleet warm-start: periods to safe convergence, cold vs warm joiner",
		Columns: []string{
			"rep", "cold_periods", "warm_periods", "pool", "cells",
		},
	}
	for rep := 0; rep < scale.Reps; rep++ {
		cold, warm, pool, err := fleetWarmRep(scale, cells, neighbors, seed+int64(rep)*7919)
		if err != nil {
			return nil, fmt.Errorf("experiment: fleet warm-start rep %d: %w", rep, err)
		}
		t.AddRow(float64(rep), float64(cold), float64(warm), float64(pool), float64(cells))
	}
	return t, nil
}

// fleetWarmRep runs one repetition: train the donor fleet, admit a warm
// joiner and a cold twin, and race them to safe convergence.
func fleetWarmRep(scale Scale, cells, neighbors int, seed int64) (cold, warm, pool int, err error) {
	slices := make([]fleet.CellConfig, cells)
	for i := range slices {
		sc := donorSlice(i)
		sc.Name = fmt.Sprintf("donor-%02d", i)
		slices[i] = fleet.CellConfig{Name: sc.Name, Slice: sc}
	}
	opts := fleet.Options{
		Cells: slices,
		Base:  testbed.DefaultConfig(),
		Agent: core.Options{
			Grid:            scale.grid(),
			MaxObservations: scale.MaxObservations,
			Telemetry:       scale.Telemetry,
		},
		BaseSeed:  seed,
		WarmStart: fleet.WarmStartPolicy{Neighbors: neighbors},
	}
	f, err := fleet.New(context.Background(), opts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = f.Close() }()
	// Donors learn their cells for the full experiment horizon.
	if _, err := f.Run(scale.Periods); err != nil {
		return 0, 0, 0, err
	}
	// The joiner matches the best-radio donors, so similarity selection
	// has signal: nearest donors share its context, far ones do not.
	joinerSlice := donorSlice(0)
	joinerSlice.Name = "joiner"
	joined, pool, err := f.AddCell(context.Background(), fleet.CellConfig{Name: "joiner", Slice: joinerSlice})
	if err != nil {
		return 0, 0, 0, err
	}
	warm, err = safeConvergencePeriod(joined.Agent, joined.Env, scale.Periods)
	if err != nil {
		return 0, 0, 0, err
	}
	// The cold twin lives in an identical environment (same slice, same
	// derived seed) but starts with empty GPs.
	coldEnv, err := multislice.NewSliceEnv(testbed.DefaultConfig(), joinerSlice, joined.Seed)
	if err != nil {
		return 0, 0, 0, err
	}
	coldAgent, err := core.NewAgent(core.Options{
		Grid:            scale.grid(),
		Weights:         joinerSlice.Weights,
		Constraints:     joinerSlice.Constraints,
		MaxObservations: scale.MaxObservations,
		Telemetry:       scale.Telemetry,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	cold, err = safeConvergencePeriod(coldAgent, coldEnv, scale.Periods)
	if err != nil {
		return 0, 0, 0, err
	}
	return cold, warm, pool, nil
}

// donorSlice returns the i-th donor cell's slice: identical service
// budgets and objectives everywhere (observation pooling requires one
// working-unit system), radio conditions degrading with i so contexts
// spread out and similarity selection is non-trivial.
func donorSlice(i int) multislice.SliceConfig {
	return multislice.SliceConfig{
		Name:          "donor",
		AirtimeBudget: 0.9,
		GPUShare:      0.9,
		Users:         []ran.User{{SNRdB: 35 - 3*float64(i)}},
		Weights:       core.CostWeights{Delta1: 1, Delta2: 1},
		Constraints:   fig9Constraints,
	}
}

// safeConvergencePeriod steps the agent until its first safe-converged
// period: a learned (non-seed-fallback) selection whose measured KPIs
// satisfy the constraints. Returns the 1-based period index, or
// maxPeriods+1 when the horizon runs out.
func safeConvergencePeriod(agent *core.Agent, env core.Environment, maxPeriods int) (int, error) {
	cons := agent.Constraints()
	for p := 1; p <= maxPeriods; p++ {
		_, k, info, err := agent.Step(env)
		if err != nil {
			return 0, err
		}
		if !info.FromSeed && cons.Satisfied(k) {
			return p, nil
		}
	}
	return maxPeriods + 1, nil
}

// VerifyFleetWarmStart asserts the scenario's claims on a FleetWarmStart
// table: every joiner converges within the horizon, warm starts are
// seeded from a non-empty pool, and — the headline — the warm joiner
// reaches its first safe-converged period in at most half the cold
// joiner's periods, in every repetition.
func VerifyFleetWarmStart(t *Table, maxPeriods int) ([]Check, error) {
	cold, err := column(t, "cold_periods", nil)
	if err != nil {
		return nil, err
	}
	warm, err := column(t, "warm_periods", nil)
	if err != nil {
		return nil, err
	}
	pool, err := column(t, "pool", nil)
	if err != nil {
		return nil, err
	}
	if len(cold) == 0 {
		return nil, fmt.Errorf("experiment: empty fleet warm-start table")
	}
	var checks []Check
	allConverged, allPooled, allHalved := true, true, true
	worstRatio := 0.0
	for i := range cold {
		if cold[i] > float64(maxPeriods) || warm[i] > float64(maxPeriods) {
			allConverged = false
		}
		if pool[i] <= 0 {
			allPooled = false
		}
		if warm[i] > cold[i]/2 {
			allHalved = false
		}
		if r := warm[i] / cold[i]; r > worstRatio {
			worstRatio = r
		}
	}
	checks = append(checks, check("fleetwarm", "cold and warm joiners converge within the horizon",
		allConverged, "horizon %d periods", maxPeriods))
	checks = append(checks, check("fleetwarm", "warm starts seeded from a non-empty donor pool",
		allPooled, "pools %v", pool))
	checks = append(checks, check("fleetwarm", "warm joiner converges in at most half the cold periods",
		allHalved, "worst warm/cold ratio %.2f", worstRatio))
	return checks, nil
}
