// Package multislice implements the deployment architecture §4.4 argues
// for: multiple edge AI services, each hosted by a pre-configured network
// slice with its own radio-airtime budget and GPU share, and one EdgeBOL
// agent per slice optimizing *within* its partition.
//
// The paper rejects a single joint optimizer across services — the
// context-action dimensionality (4S + 3) makes the learning data demand
// grow exponentially — and notes slices are re-configured on much slower
// timescales than the per-second control loop. This package follows that
// design: slice budgets are static inputs, and the per-slice agents remain
// four-dimensional regardless of the number of services.
package multislice

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// SliceConfig describes one service slice.
type SliceConfig struct {
	// Name labels the slice.
	Name string
	// AirtimeBudget is the slice's share of the carrier's uplink airtime;
	// budgets across slices must sum to at most 1. The slice agent's
	// airtime policy is relative to this budget.
	AirtimeBudget float64
	// GPUShare is the slice's share of the edge server's GPU capacity
	// (enforced by the server's scheduler); shares must sum to at most 1.
	GPUShare float64
	// Users is the slice's UE population.
	Users []ran.User
	// Weights and Constraints define the slice's own optimization problem.
	Weights     core.CostWeights
	Constraints core.Constraints
}

// Validate reports whether the slice configuration is usable.
func (c SliceConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("multislice: slice needs a name")
	}
	if c.AirtimeBudget <= 0 || c.AirtimeBudget > 1 {
		return fmt.Errorf("multislice: %s: airtime budget %v outside (0,1]", c.Name, c.AirtimeBudget)
	}
	if c.GPUShare <= 0 || c.GPUShare > 1 {
		return fmt.Errorf("multislice: %s: GPU share %v outside (0,1]", c.Name, c.GPUShare)
	}
	if len(c.Users) == 0 {
		return fmt.Errorf("multislice: %s: no users", c.Name)
	}
	if err := c.Constraints.Validate(); err != nil {
		return fmt.Errorf("multislice: %s: %w", c.Name, err)
	}
	if err := c.Weights.Validate(); err != nil {
		return fmt.Errorf("multislice: %s: %w", c.Name, err)
	}
	return nil
}

// SliceEnv is the core.Environment a slice's agent sees: the shared
// substrate through the lens of the slice's partition. The agent's airtime
// policy scales within the budget, the GPU appears GPUShare as fast, and
// the power KPIs attribute idle draw proportionally to the partition so
// per-slice costs sum coherently.
type SliceEnv struct {
	cfg SliceConfig
	tb  *testbed.Testbed

	bsIdleW     float64
	serverIdleW float64
}

// Measure implements core.Environment.
func (s *SliceEnv) Measure(x core.Control) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	scaled := x
	scaled.Airtime = x.Airtime * s.cfg.AirtimeBudget
	k, err := s.tb.Measure(scaled)
	if err != nil {
		return core.KPIs{}, err
	}
	return s.attribute(k), nil
}

// Expected returns the slice's noise-free surface for oracle comparisons.
func (s *SliceEnv) Expected(x core.Control) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	scaled := x
	scaled.Airtime = x.Airtime * s.cfg.AirtimeBudget
	k, err := s.tb.Expected(scaled)
	if err != nil {
		return core.KPIs{}, err
	}
	return s.attribute(k), nil
}

// attribute converts machine-level power readings into the slice's share:
// the dynamic part is caused by this slice's traffic alone (the substrate
// below simulates only this slice), while idle draw is split by partition
// size so that Σ_slices power ≈ machine power.
func (s *SliceEnv) attribute(k core.KPIs) core.KPIs {
	k.BSPower = s.bsIdleW*s.cfg.AirtimeBudget + (k.BSPower - s.bsIdleW)
	k.ServerPower = s.serverIdleW*s.cfg.GPUShare + (k.ServerPower - s.serverIdleW)
	return k
}

// Context implements core.Environment.
func (s *SliceEnv) Context() core.Context { return s.tb.Context() }

// Config returns the slice configuration the environment was built from.
func (s *SliceEnv) Config() SliceConfig { return s.cfg }

// Testbed returns the underlying per-slice substrate, e.g. for attaching
// telemetry via Testbed.Instrument.
func (s *SliceEnv) Testbed() *testbed.Testbed { return s.tb }

// NewSliceEnv builds one slice's environment over its own partition of the
// shared substrate: a testbed whose GPU runs GPUShare as fast, wrapped in
// the airtime-budget scaling and idle-power attribution lens. This is the
// per-cell building block System and fleet.Fleet share; unlike New it does
// not validate cross-slice budget sums — the caller owns that invariant.
func NewSliceEnv(base testbed.Config, sc SliceConfig, seed int64) (*SliceEnv, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := base
	// The slice sees a GPU that is GPUShare as fast: the server's
	// scheduler grants it that fraction of cycles.
	cfg.Edge.BaseServiceTime = base.Edge.BaseServiceTime / sc.GPUShare
	tb, err := testbed.New(cfg, sc.Users, seed)
	if err != nil {
		return nil, fmt.Errorf("multislice: %s: %w", sc.Name, err)
	}
	bsIdle, _ := ran.BSPowerRange()
	serverIdle := cfg.Edge.ServerIdleW + float64(cfg.Edge.PoolSize())*cfg.Edge.GPUIdleW
	return &SliceEnv{cfg: sc, tb: tb, bsIdleW: bsIdle, serverIdleW: serverIdle}, nil
}

// Slice couples a slice's environment with its EdgeBOL agent.
type Slice struct {
	Config SliceConfig
	Env    *SliceEnv
	Agent  *core.Agent
}

// System is a set of slices over one shared machine room.
type System struct {
	Slices []*Slice
}

// New builds the system: per-slice testbeds reflecting each partition plus
// per-slice agents. base supplies the shared substrate parameters.
func New(base testbed.Config, grid core.GridSpec, slices []SliceConfig, seed int64) (*System, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("multislice: no slices")
	}
	var airtimeSum, gpuSum float64
	for _, sc := range slices {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		airtimeSum += sc.AirtimeBudget
		gpuSum += sc.GPUShare
	}
	if airtimeSum > 1+1e-9 {
		return nil, fmt.Errorf("multislice: airtime budgets sum to %v > 1", airtimeSum)
	}
	if gpuSum > 1+1e-9 {
		return nil, fmt.Errorf("multislice: GPU shares sum to %v > 1", gpuSum)
	}
	sys := &System{}
	for i, sc := range slices {
		env, err := NewSliceEnv(base, sc, seed+int64(i)*977)
		if err != nil {
			return nil, err
		}
		agent, err := core.NewAgent(core.Options{
			Grid:        grid,
			Weights:     sc.Weights,
			Constraints: sc.Constraints,
		})
		if err != nil {
			return nil, fmt.Errorf("multislice: %s: %w", sc.Name, err)
		}
		sys.Slices = append(sys.Slices, &Slice{Config: sc, Env: env, Agent: agent})
	}
	return sys, nil
}

// PeriodResult is one slice's outcome in a control period.
type PeriodResult struct {
	Slice   string
	Control core.Control
	KPIs    core.KPIs
	Info    core.SelectionInfo
}

// Step runs one control period: every slice's agent selects, measures, and
// learns within its own partition.
func (s *System) Step() ([]PeriodResult, error) {
	out := make([]PeriodResult, 0, len(s.Slices))
	for _, sl := range s.Slices {
		x, k, info, err := sl.Agent.Step(sl.Env)
		if err != nil {
			return out, fmt.Errorf("multislice: %s: %w", sl.Config.Name, err)
		}
		out = append(out, PeriodResult{Slice: sl.Config.Name, Control: x, KPIs: k, Info: info})
	}
	return out, nil
}

// TotalCost sums the slices' attributed costs for one period's results.
func TotalCost(results []PeriodResult, slices []*Slice) float64 {
	var sum float64
	for i, r := range results {
		sum += slices[i].Config.Weights.Cost(r.KPIs)
	}
	return sum
}
