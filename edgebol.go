// Package edgebol is the public API of this reproduction of "EdgeBOL:
// Automating Energy-savings for Mobile Edge AI" (Ayala-Romero,
// Garcia-Saavedra, Costa-Perez, Iosifidis — CoNEXT 2021).
//
// EdgeBOL is a contextual safe Bayesian online-learning controller that
// jointly configures a virtualized base station (airtime and max-MCS radio
// policies) and a GPU edge AI service (image resolution and GPU speed) to
// minimize energy cost under service-level delay and accuracy constraints.
//
// The package re-exports the library's building blocks:
//
//   - the learning agent (Agent, Options, Algorithm 1 of the paper),
//   - the problem vocabulary (Context, Control, KPIs, Constraints,
//     CostWeights),
//   - the simulated prototype (Testbed) standing in for the paper's
//     srsRAN + USRP + RTX 2080 Ti testbed,
//   - the O-RAN control plane (Deploy) for driving the loop over real
//     loopback TCP interfaces,
//   - fleet-scale orchestration (NewFleet) — many cells, each with its
//     own agent and control plane, with cross-cell GP warm starts for
//     joining cells (WarmStart),
//   - the telemetry subsystem (Registry, PeriodRecord, Snapshot) that
//     instruments all of the above,
//   - the benchmark controllers (DDPG, Oracle) of the paper's evaluation,
//   - and the experiment harness that regenerates every figure.
//
// Quickstart:
//
//	tb, _ := edgebol.NewTestbed(edgebol.DefaultTestbedConfig(),
//		[]edgebol.User{{SNRdB: 35}}, 1)
//	reg := edgebol.NewRegistry() // optional; nil disables telemetry
//	tb.Instrument(reg)
//	agent, _ := edgebol.NewAgent(edgebol.Options{
//		Grid:        edgebol.DefaultGridSpec(),
//		Weights:     edgebol.CostWeights{Delta1: 1, Delta2: 1},
//		Constraints: edgebol.Constraints{MaxDelay: 0.4, MinMAP: 0.5},
//		Telemetry:   reg,
//	})
//	for t := 0; t < 150; t++ {
//		x, kpis, info, err := agent.Step(tb)
//		...
//	}
//	for _, rec := range reg.Periods() { // one PeriodRecord per period
//		fmt.Println(rec.Period, rec.Cost, rec.SafeSetSize)
//	}
//
// See examples/ for complete programs and DESIGN.md for the system map.
package edgebol

import (
	"context"
	"io"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/multislice"
	"repro/internal/oran"
	"repro/internal/ran"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// Problem vocabulary (§4 of the paper).
type (
	// Context is the slice state c_t = [users, mean CQI, var CQI].
	Context = core.Context
	// Control is the joint policy x_t = [resolution, airtime, GPU speed,
	// max MCS].
	Control = core.Control
	// KPIs are the per-period performance-indicator observations.
	KPIs = core.KPIs
	// Constraints are the service requirements (d^max, ρ^min) of eq. 2.
	Constraints = core.Constraints
	// CostWeights are the energy prices (δ₁, δ₂) of eq. 1.
	CostWeights = core.CostWeights
	// Environment is the data plane the agent drives.
	Environment = core.Environment
)

// Learning agent (§5, Algorithm 1).
type (
	// Agent is the EdgeBOL learner.
	Agent = core.Agent
	// Options configure an Agent.
	Options = core.Options
	// GridSpec defines the discrete control space X.
	GridSpec = core.GridSpec
	// SelectionInfo carries per-period acquisition diagnostics.
	SelectionInfo = core.SelectionInfo
	// Normalization maps raw KPIs into GP working units.
	Normalization = core.Normalization
	// Affine is one normalization transform.
	Affine = core.Affine
	// EngineSelector picks the GP inference engine (Options.Engine).
	EngineSelector = core.EngineSelector
	// AcquisitionRule selects the selection formula (Options.Rule).
	AcquisitionRule = core.AcquisitionRule
	// AcquisitionMode selects the acquisition mode — auto (exhaustive on
	// small grids, coarse-to-fine adaptive search on large ones) or always
	// exhaustive (Options.Acquisition).
	AcquisitionMode = core.AcquisitionMode
)

// GP inference engines, fixed for an agent's life: the exact posterior
// (the default, bitwise-stable story) and the sparse inducing-point
// engine with per-period cost flat in the history length. See DESIGN.md
// §12.
const (
	EngineExact  = core.EngineExact
	EngineSparse = core.EngineSparse
)

// Acquisition rules (§5): the paper's constrained LCB and the
// SafeOpt-style alternative it rejected.
const (
	AcquisitionLCB     = core.AcquisitionLCB
	AcquisitionSafeOpt = core.AcquisitionSafeOpt
)

// Acquisition modes (DESIGN.md §14): auto picks the exhaustive sweep on
// grids up to the paper's scale and the adaptive coarse-to-fine search on
// the larger spaces the split-inference dimension opens up; exhaustive
// sweeps the whole grid at any size.
const (
	AcqAuto       = core.AcqAuto
	AcqExhaustive = core.AcqExhaustive
)

// Offline hyperparameter fitting (§5 "Kernel selection").
type (
	// PretrainOptions configure the offline fitting phase.
	PretrainOptions = core.PretrainOptions
	// PretrainResult holds per-objective fitted hyperparameters.
	PretrainResult = core.PretrainResult
)

// NewAgent builds an EdgeBOL agent.
func NewAgent(opts Options) (*Agent, error) { return core.NewAgent(opts) }

// Pretrain fits per-objective GP hyperparameters on prior data collected
// with random controls, the paper's offline phase; apply the result to
// Options before NewAgent.
func Pretrain(env Environment, grid GridSpec, w CostWeights, opts PretrainOptions, seed int64) (PretrainResult, error) {
	return core.Pretrain(env, grid, w, opts, seed)
}

// DefaultGridSpec returns the paper's 11-level control grid.
func DefaultGridSpec() GridSpec { return core.DefaultGridSpec() }

// DefaultNormalization returns KPI normalization matched to the testbed.
func DefaultNormalization(w CostWeights) Normalization { return core.DefaultNormalization(w) }

// Simulated prototype (§6.1).
type (
	// Testbed is the simulated vBS + edge-server prototype.
	Testbed = testbed.Testbed
	// TestbedConfig parameterizes the simulation.
	TestbedConfig = testbed.Config
	// User is one UE attached to the slice.
	User = ran.User
)

// NewTestbed builds the simulated prototype.
func NewTestbed(cfg TestbedConfig, users []User, seed int64) (*Testbed, error) {
	return testbed.New(cfg, users, seed)
}

// DefaultTestbedConfig returns the calibrated prototype model.
func DefaultTestbedConfig() TestbedConfig { return testbed.DefaultConfig() }

// HeterogeneousUsers returns the §6.4 multi-user population.
func HeterogeneousUsers(n int) []User { return testbed.HeterogeneousUsers(n) }

// Benchmarks (§6.3–§6.5).
type (
	// DDPG is the actor-critic baseline of the Fig. 14 comparison.
	DDPG = bandit.DDPG
	// DDPGOptions configure the baseline.
	DDPGOptions = bandit.DDPGOptions
)

// NewDDPG builds the DDPG baseline.
func NewDDPG(opts DDPGOptions) (*DDPG, error) { return bandit.NewDDPG(opts) }

// Oracle exhaustively searches the noise-free surface for the cheapest
// feasible control (the paper's offline benchmark).
func Oracle(expected bandit.ExpectedFn, grid GridSpec, w CostWeights, cons Constraints) (Control, float64, error) {
	return bandit.Oracle(expected, grid, w, cons)
}

// Telemetry (runtime observability of the whole loop).
type (
	// Registry collects counters, gauges, histograms, and the per-period
	// event stream; it is the one handle shared across layers. All methods
	// are safe on a nil *Registry, which disables telemetry at zero cost.
	Registry = telemetry.Registry
	// PeriodRecord is one control period's full structured trace: context,
	// control, KPIs, cost, safe-set diagnostics, per-objective posterior at
	// the chosen control, GP training-set size, and sweep latency.
	PeriodRecord = telemetry.PeriodRecord
	// Snapshot is a point-in-time copy of every metric in a Registry.
	Snapshot = telemetry.Snapshot
)

// NewRegistry returns an empty telemetry registry; attach it via
// Options.Telemetry, Testbed.Instrument, and DeployOptions.Telemetry so
// one registry carries core, gp, oran, and testbed metrics together.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// Checkpointing (warm restart of learned state).
type (
	// CheckpointInfo summarizes a snapshot file without restoring it:
	// format version, period counter, cost mode, and per-objective GP
	// training-set sizes.
	CheckpointInfo = core.CheckpointInfo
	// ObjectiveSize is one objective's entry in CheckpointInfo.
	ObjectiveSize = core.ObjectiveSize
	// ErrInvalidReconfig is the typed error SetConstraints/SetWeights
	// return, carrying the offending field.
	ErrInvalidReconfig = core.ErrInvalidReconfig
	// Checkpointer commits periodic snapshots into a directory with
	// crash-safe write-then-rename semantics (see DeployOptions.CheckpointDir).
	Checkpointer = oran.Checkpointer
)

// ErrCheckpointMismatch marks a checkpoint whose fixed configuration
// (grid, kernels, acquisition, normalization, ...) disagrees with the
// Options passed to LoadCheckpoint. Test with errors.Is.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// SaveCheckpoint serializes the agent's full learned state — the period
// counter, the runtime-mutable weights and constraints, and every GP's
// training rows, targets and Cholesky factor — into the versioned,
// CRC-protected snapshot format (see DESIGN.md §11).
func SaveCheckpoint(a *Agent, w io.Writer) error { return a.SaveCheckpoint(w) }

// LoadCheckpoint reconstructs an agent from a snapshot written by
// SaveCheckpoint. opts must carry the same fixed configuration the saved
// agent was built with; the restore is bitwise lossless, so the resumed
// agent's selections and posteriors are identical to those of an agent
// that was never interrupted.
func LoadCheckpoint(r io.Reader, opts Options) (*Agent, error) {
	return core.LoadCheckpoint(r, opts)
}

// ReadCheckpointInfo inspects a snapshot without building an agent.
func ReadCheckpointInfo(r io.Reader) (CheckpointInfo, error) {
	return core.ReadCheckpointInfo(r)
}

// O-RAN control plane (Fig. 7).
type (
	// Deployment is the loopback A1/E2/O1 stack.
	Deployment = oran.Deployment
	// DeployOptions configure Deploy: request timeout, optional /metrics +
	// /debug/pprof listen address, and the telemetry registry.
	DeployOptions = oran.DeployOptions
)

// Deploy stands up the control plane around an environment, scoped to
// ctx: cancellation tears the deployment down. The zero DeployOptions is
// valid (default timeout, telemetry off); callers that never cancel pass
// context.Background().
func Deploy(ctx context.Context, env Environment, opts DeployOptions) (*Deployment, error) {
	return oran.Deploy(ctx, env, opts)
}

// Fleet-scale orchestration: N cells — each a network slice with its own
// testbed, agent, and O-RAN control plane — behind one coordinator, with
// cross-cell GP warm starts for joining cells. See DESIGN.md §13.
type (
	// Fleet is N cells behind one non-RT-RIC-shaped coordinator.
	Fleet = fleet.Fleet
	// FleetOptions configure NewFleet; Validate returns typed
	// *FleetOptionError values.
	FleetOptions = fleet.Options
	// FleetOptionError is the typed validation error of FleetOptions.
	FleetOptionError = fleet.OptionError
	// FleetCellConfig is one cell of a fleet: a named service slice.
	FleetCellConfig = fleet.CellConfig
	// FleetCell is one deployed member: slice env, agent, control plane.
	FleetCell = fleet.Cell
	// FleetCellResult is one cell's outcome in one fleet period.
	FleetCellResult = fleet.CellResult
	// FleetSummary aggregates a fleet's cost/violation/power roll-ups.
	FleetSummary = fleet.Summary
	// WarmStartPolicy governs cross-cell knowledge transfer: how many
	// context-similar neighbors donate history to a joining cell, and the
	// pooled-observation cap.
	WarmStartPolicy = fleet.WarmStartPolicy
	// WarmStartDonor is one candidate donor for WarmStart.
	WarmStartDonor = fleet.Donor
	// SliceConfig describes one service slice (shared with the §4.4
	// multi-slice deployment architecture).
	SliceConfig = multislice.SliceConfig
	// HistorySample is one GP training observation in normalized working
	// units — the currency of cross-cell observation pooling (see
	// Agent.History and Agent.SeedHistory).
	HistorySample = core.HistorySample
)

// NewFleet builds and deploys a fleet. The context scopes every cell's
// control plane: canceling it tears the whole fleet down.
func NewFleet(ctx context.Context, opts FleetOptions) (*Fleet, error) {
	return fleet.New(ctx, opts)
}

// FleetCells builds n uniform cell configurations from one slice
// template — the convenient input for symmetric fleets.
func FleetCells(n int, template SliceConfig) []FleetCellConfig {
	return fleet.Cells(n, template)
}

// WarmStart seeds an agent from neighbors' observation histories,
// selected by context similarity and capped by the policy; the seeded
// agent is bitwise identical to a fresh agent that observed the pooled
// history itself.
func WarmStart(a *Agent, target Context, donors []WarmStartDonor, policy WarmStartPolicy) (int, error) {
	return fleet.WarmStart(a, target, donors, policy)
}

// Experiments (§3 and §6).
type (
	// ExperimentScale sizes the figure regenerations.
	ExperimentScale = experiment.Scale
	// ResultTable is one regenerated figure as tabular data.
	ResultTable = experiment.Table
)

// PaperScale returns the paper's experiment sizes; QuickScale a reduced
// setting preserving every qualitative effect.
func PaperScale() ExperimentScale { return experiment.PaperScale() }

// QuickScale returns the reduced experiment sizes.
func QuickScale() ExperimentScale { return experiment.QuickScale() }
