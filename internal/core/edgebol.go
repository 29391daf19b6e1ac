package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/gp"
	"repro/internal/telemetry"
)

// Affine maps a raw KPI y onto the GP's working units:
// y_norm = (y − Center)/Scale.
type Affine struct {
	Center, Scale float64
}

// Norm applies the transform.
//
//edgebol:allow nanguard -- Scale is a fixed positive normalization constant (see Normalization below)
func (a Affine) Norm(y float64) float64 { return (y - a.Center) / a.Scale }

// Normalization holds the per-objective affine transforms applied to raw
// targets before they enter the zero-mean, unit-prior-variance GPs. The
// paper's "w.l.o.g. μ := 0, k(z,z′) < 1" hides exactly this bookkeeping:
// data must be centered and scaled for the zero-mean unit prior to be
// meaningful.
//
// These constants set the *statistical resolution* of the safe set. With
// β = 2.5, an unobserved control enters S_t only when β·σ drops below its
// constraint margin in normalized units, so each Scale should be
// comparable to the smallest margin that still counts as comfortably safe
// — not to the KPI's full range (oversized scales shrink every margin
// below β·σ and pin the agent to S₀ forever). Each Center should be a
// typical safe operating value, so the prior's pull toward zero is neither
// optimistic nor catastrophic for unexplored regions.
type Normalization struct {
	Cost, Delay, MAP Affine
	// ServerPower and BSPower are used only in decomposed-cost mode
	// (Options.DecomposedCost), where the two power surfaces are learned
	// separately.
	ServerPower, BSPower Affine
}

// DefaultNormalization returns transforms suited to the testbed's
// envelopes for the given cost weights: costs spanning roughly
// δ₁·[75, 220] W + δ₂·[4.6, 8] W, delays near 0.25 s with constraint
// margins of order 0.1 s, and mAPs near 0.55 with margins of order 0.1.
func DefaultNormalization(w CostWeights) Normalization {
	return Normalization{
		Cost:        Affine{Center: w.Delta1*120 + w.Delta2*5.5, Scale: w.Delta1*35 + w.Delta2*1},
		Delay:       Affine{Center: 0.25, Scale: 0.1},
		MAP:         Affine{Center: 0.55, Scale: 0.1},
		ServerPower: Affine{Center: 120, Scale: 35},
		BSPower:     Affine{Center: 5.5, Scale: 1},
	}
}

// fill replaces every zero-valued transform with its
// DefaultNormalization(w) counterpart and checks the result: each
// transform needs a finite center and a finite positive scale.
func (n *Normalization) fill(w CostWeights) error {
	def := DefaultNormalization(w)
	defs := normAffines(&def)
	for i, af := range normAffines(n) {
		if *af == (Affine{}) {
			*af = *defs[i]
		}
		if af.Scale <= 0 || !finite(af.Scale) || !finite(af.Center) {
			return fmt.Errorf("core: %s normalization %+v needs a finite center and a finite positive scale", objectiveNames[i], *af)
		}
	}
	return nil
}

// EngineSelector picks the GP inference engine an agent runs.
type EngineSelector int

const (
	// EngineExact is the exact GP: O(t²) per observation, O(t²) per
	// candidate sweep, optionally capped by MaxObservations. The default,
	// and the correctness oracle the sparse engine is tested against.
	EngineExact EngineSelector = iota
	// EngineSparse runs the inducing-point engine from the first
	// observation: O(m²) per observation and per candidate regardless of
	// horizon (see gp.SparseConfig).
	EngineSparse
)

// String returns the selector's flag/metadata spelling.
func (e EngineSelector) String() string {
	if e == EngineSparse {
		return "sparse"
	}
	return "exact"
}

// Options configure an EdgeBOL agent.
type Options struct {
	// Grid is the discrete control space X.
	Grid GridSpec
	// Weights are the energy prices δ₁, δ₂ of eq. 1.
	Weights CostWeights
	// Constraints are the initial service requirements (changeable at
	// runtime via SetConstraints, as exercised in Fig. 14).
	Constraints Constraints
	// SafeSeed is the initial safe set S₀. The paper seeds it with the
	// lowest-delay, highest-mAP (and highest-power) configurations; empty
	// defaults to maximum radio and compute resources at every resolution
	// level — full resolution gives the highest mAP, lower resolutions the
	// lowest delays, and all of them burn maximum power.
	SafeSeed []Control
	// SafeBeta is the σ multiplier β in the safe-set test (eq. 8) and
	// AcqBeta the √β multiplier in the LCB acquisition (eq. 9). The paper
	// reports β^½ = 2.5 working well; both default to 2.5 when zero.
	SafeBeta, AcqBeta float64
	// LengthScales are the per-dimension kernel length scales over the
	// normalized (context, control) features. Safe-set expansion requires
	// adjacent grid points to be strongly correlated (k ≳ 0.98) — otherwise
	// the β-inflated confidence bound never certifies any unobserved
	// control and the agent stays pinned to S₀ — so nil defaults to
	// ≈10 grid steps on the control dimensions and 0.6 on the context
	// dimensions.
	LengthScales []float64
	// Kernel is the covariance family of every GP; the zero value is the
	// paper's Matérn-3/2 (eq. 6).
	Kernel gp.Family
	// LengthScalesPerGP optionally overrides LengthScales per objective
	// (0 = cost, 1 = delay, 2 = mAP) — the paper fits hyperparameters for
	// each function i separately on prior data (§5 "Kernel selection").
	// Nil entries fall back to LengthScales. The DecomposedCost power
	// surfaces take the cost entry.
	LengthScalesPerGP [3][]float64
	// NoiseVars are the observation-noise variances ζ² of the cost, delay,
	// and mAP GPs over *normalized* targets; zero entries default to values
	// matched to the testbed's measurement noise under
	// DefaultNormalization.
	NoiseVars [3]float64
	// Norm maps raw targets to GP working units; zero-valued transforms
	// default to DefaultNormalization(Weights).
	Norm Normalization
	// MaxObservations bounds each GP's retained history (0 = unlimited).
	// It applies to the exact engine only: the sparse engine's costs are
	// bounded by InducingPoints and eviction is a no-op there.
	MaxObservations int
	// Engine selects the GP inference engine, exact or sparse, for the
	// agent's whole life. Fixed configuration: a checkpoint restores only
	// under the selector it was saved with.
	Engine EngineSelector
	// InducingPoints is the sparse engine's basis budget m; 0 defaults to
	// 128. Larger m tracks the exact posterior more tightly at O(m²)
	// per-candidate cost.
	InducingPoints int
	// InferenceWorkers is the degree of parallelism of the per-period
	// posterior sweep: the candidates of each acquisition batch are sharded
	// across this many goroutines, each evaluating every objective at its
	// candidates. 0 scales the count with the work, up to GOMAXPROCS; 1
	// runs the whole sweep serially on the calling goroutine. Selected
	// controls are bitwise identical for every setting.
	InferenceWorkers int
	// DisableSafeSet turns off the eq. 8 safety filter, reducing EdgeBOL
	// to plain contextual LCB minimization over the whole grid — the
	// safe-set ablation of the evaluation suite.
	DisableSafeSet bool
	// Rule selects the per-period control picker: the paper's
	// constrained LCB (eq. 9, default) or the SafeOpt-style
	// uncertainty-in-maximizers-and-expanders rule the paper compared
	// against and found "overly slow" (§5, citing Berkenkamp et al.).
	Rule AcquisitionRule
	// Acquisition selects the acquisition mode: AcqAuto (default) covers
	// the whole grid where that is affordable and runs the budgeted
	// coarse-to-fine search past acqAutoThreshold candidates; AcqExhaustive
	// covers the whole grid at any size. Both modes score candidates with
	// one set of selection formulas; the budgeted one holds a bounded
	// optimum regret while evaluating a few percent of the candidates.
	// Fixed configuration: a checkpoint restores only under the mode it
	// was saved with.
	Acquisition AcquisitionMode
	// DecomposedCost learns the two power surfaces p_s and p_b with
	// separate GPs instead of the scalar cost u. The acquisition combines
	// them with the current weights, so δ₁/δ₂ may change at runtime
	// (SetWeights) without invalidating any learned knowledge — the §4.3
	// scenario of energy prices varying between day and night.
	DecomposedCost bool
	// PowerNoiseVars are the observation-noise variances of the server
	// and BS power GPs in decomposed mode; zeros default to the testbed's
	// meter noise under DefaultNormalization.
	PowerNoiseVars [2]float64
	// Telemetry attaches a metrics registry to the agent: per-period
	// counters/gauges, the acquisition-sweep latency histogram, the GP
	// observation/eviction counters, and one telemetry.PeriodRecord per
	// completed period. Nil disables instrumentation with zero overhead
	// on the inference hot path.
	Telemetry *telemetry.Registry
}

func (o *Options) applyDefaults() error {
	if err := o.Grid.Validate(); err != nil {
		return err
	}
	if err := o.Constraints.Validate(); err != nil {
		return err
	}
	if err := o.Weights.Validate(); err != nil {
		return err
	}
	if len(o.SafeSeed) == 0 {
		// One seed per resolution level, at maximum radio/compute resources
		// with all-edge inference (SplitLayer 0): full resolution gives the
		// highest mAP, lower resolutions the lowest delays, and all of them
		// burn maximum power.
		for _, r := range levelsIn(o.Grid.MinResolution, o.Grid.dimLevels(dimResolution)) {
			o.SafeSeed = append(o.SafeSeed, Control{Resolution: r, Airtime: 1, GPUSpeed: 1, MCS: 1})
		}
	}
	for i, s := range o.SafeSeed {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: safe seed %d: %w", i, err)
		}
	}
	if o.SafeBeta == 0 {
		o.SafeBeta = 2.5
	}
	if o.AcqBeta == 0 {
		o.AcqBeta = 2.5
	}
	if o.SafeBeta < 0 || o.AcqBeta < 0 || !finite(o.SafeBeta) || !finite(o.AcqBeta) {
		return fmt.Errorf("core: betas %v, %v must be finite and non-negative", o.SafeBeta, o.AcqBeta)
	}
	dims := ContextDims + ControlDims
	if o.LengthScales == nil {
		o.LengthScales = make([]float64, dims)
		for i := 0; i < ContextDims; i++ {
			o.LengthScales[i] = 0.6
		}
		var steps [ControlDims]float64
		for d := range steps {
			// A single-level dimension is pinned: its feature distance is
			// identically zero, so any positive length scale is equivalent.
			if n := o.Grid.dimLevels(d); n > 1 {
				steps[d] = (1 - o.Grid.dimLow(d)) / float64(n-1)
			} else {
				steps[d] = 1
			}
		}
		for i, s := range steps {
			ls := 12 * s
			if ls < 0.5 {
				ls = 0.5
			}
			if ls > 4 {
				ls = 4
			}
			o.LengthScales[ContextDims+i] = ls
		}
	}
	if len(o.LengthScales) != dims {
		return fmt.Errorf("core: %d length scales, want %d", len(o.LengthScales), dims)
	}
	for i, ls := range o.LengthScalesPerGP {
		if ls != nil && len(ls) != dims {
			return fmt.Errorf("core: %d length scales for GP %d, want %d", len(ls), i, dims)
		}
	}
	for _, ls := range append([][]float64{o.LengthScales}, o.LengthScalesPerGP[:]...) {
		for _, l := range ls {
			if l <= 0 || math.IsNaN(l) {
				return fmt.Errorf("core: length scale %v must be positive", l)
			}
		}
	}
	defNoise := [3]float64{1e-3, 2e-2, 6e-2}
	for i := range o.NoiseVars {
		if o.NoiseVars[i] == 0 {
			o.NoiseVars[i] = defNoise[i]
		}
		if o.NoiseVars[i] < 0 || !finite(o.NoiseVars[i]) {
			return fmt.Errorf("core: noise variance %v must be finite and positive", o.NoiseVars[i])
		}
	}
	if err := o.Norm.fill(o.Weights); err != nil {
		return err
	}
	defPowerNoise := [2]float64{7e-3, 3e-2}
	for i := range o.PowerNoiseVars {
		if o.PowerNoiseVars[i] == 0 {
			o.PowerNoiseVars[i] = defPowerNoise[i]
		}
		if o.PowerNoiseVars[i] < 0 || !finite(o.PowerNoiseVars[i]) {
			return fmt.Errorf("core: power noise variance %v must be finite and positive", o.PowerNoiseVars[i])
		}
	}
	if o.MaxObservations < 0 || o.MaxObservations == 1 {
		return fmt.Errorf("core: observation bound %d must be 0 (unlimited) or at least 2", o.MaxObservations)
	}
	if o.Engine < EngineExact || o.Engine > EngineSparse {
		return fmt.Errorf("core: unknown engine selector %d", o.Engine)
	}
	if o.InducingPoints < 0 {
		return fmt.Errorf("core: negative inducing budget")
	}
	if o.InducingPoints == 0 {
		o.InducingPoints = 128
	}
	if o.InferenceWorkers < 0 {
		return fmt.Errorf("core: negative inference worker count")
	}
	if o.Rule < AcquisitionLCB || o.Rule > AcquisitionSafeOpt {
		return fmt.Errorf("core: unknown acquisition rule %d", o.Rule)
	}
	if o.Acquisition < AcqAuto || o.Acquisition > AcqExhaustive {
		return fmt.Errorf("core: unknown acquisition mode %d", o.Acquisition)
	}
	return nil
}

// controlsClose reports approximate equality of two controls, tolerating
// the floating-point error of grid-level arithmetic.
func controlsClose(a, b Control) bool {
	const eps = 1e-9
	return math.Abs(a.Resolution-b.Resolution) < eps &&
		math.Abs(a.Airtime-b.Airtime) < eps &&
		math.Abs(a.GPUSpeed-b.GPUSpeed) < eps &&
		math.Abs(a.MCS-b.MCS) < eps &&
		math.Abs(a.SplitLayer-b.SplitLayer) < eps
}

// AcquisitionRule identifies a control-selection rule.
type AcquisitionRule int

const (
	// AcquisitionLCB is the paper's constrained lower-confidence-bound
	// rule (eq. 9).
	AcquisitionLCB AcquisitionRule = iota
	// AcquisitionSafeOpt is the SafeOpt-style rule: sample the most
	// uncertain point among the potential minimizers and the safe-set
	// expanders. It carries exploration guarantees but converges slowly —
	// the comparison that motivated the paper's choice of eq. 9.
	AcquisitionSafeOpt
)

// AcquisitionMode selects how the per-period acquisition searches the
// control grid.
type AcquisitionMode int

const (
	// AcqAuto (the zero value) sweeps exhaustively on grids up to
	// acqAutoThreshold candidates — where the SweepPlan is fast and the
	// full posterior arrays are cheap — and runs the adaptive
	// coarse-to-fine search beyond, where the exhaustive sweep stops
	// scaling: a strided sub-lattice sweep refined around the incumbents
	// plus best-first local search seeded from the safe set, evaluating a
	// few percent of the grid. SafeOpt always sweeps exhaustively.
	AcqAuto AcquisitionMode = iota
	// AcqExhaustive forces full coverage: every candidate's posterior is
	// computed every period, at any grid size. The reference the budgeted
	// adaptive mode's regret is measured against on large grids.
	AcqExhaustive
)

// String returns the mode's flag/metadata spelling.
func (m AcquisitionMode) String() string {
	if m == AcqExhaustive {
		return "exhaustive"
	}
	return "auto"
}

// acqAutoThreshold is the grid size above which AcqAuto abandons the
// exhaustive sweep. The paper's 11⁴ = 14 641 grid stays comfortably below
// it, so default-configured agents keep their bitwise-exact behaviour.
const acqAutoThreshold = 32768

// Objective ids, in normAffines order: the paper's function indices
// i = 0 (cost), 1 (delay), 2 (mAP), then the server and BS power surfaces
// that decomposed-cost agents learn in place of the cost.
const (
	gpCost = iota
	gpDelay
	gpMAP
	gpServerPower
	gpBSPower
	numObjectives
)

// objectiveNames label the objectives, indexed by id, in telemetry and in
// the checkpoint's objective inventory.
var objectiveNames = [numObjectives]string{"cost", "delay", "map", "server_power", "bs_power"}

// objective is one function the agent learns: its GP and the GP's grid
// sweep plan, which tracks the GP's basis as it grows.
type objective struct {
	id   int
	gp   *gp.GP
	plan *gp.SweepPlan
}

// Agent is the EdgeBOL learner (Algorithm 1). It is not safe for
// concurrent use.
type Agent struct {
	opts Options
	// adaptive is the resolved acquisition mode: AcqAuto above
	// acqAutoThreshold candidates under the LCB rule.
	adaptive bool
	// acq is the pooled acquisition-engine state: budgeted waves on
	// adaptive agents, full coverage on all others (see acquire.go).
	acq *acqEngine

	// objs are the learned objectives in id order: cost, delay and mAP, or
	// under DecomposedCost delay, mAP, server power and BS power.
	objs []objective

	safeSeedIx []int // indices of seed controls within the grid
	t          int

	met agentMetrics
	// lastInfo pairs the most recent SelectControl diagnostics with the
	// subsequent Observe, so a PeriodRecord can be emitted even when the
	// caller drives SelectControl and Observe separately (as Fig. 14 does).
	lastInfo SelectionInfo
}

// agentMetrics holds the agent's pre-registered telemetry handles; the
// zero value (all nil) is the disabled state.
type agentMetrics struct {
	reg          *telemetry.Registry
	periods      *telemetry.Counter
	seedFallback *telemetry.Counter
	safeSize     *telemetry.Gauge
	lcb          *telemetry.Gauge
	trainSize    *telemetry.Gauge
	sweep        *telemetry.Histogram

	// Acquisition-engine instrumentation: candidates scored, candidates
	// that got a variance, multigrid refinement rounds and
	// budget-exhaustion fallbacks.
	acqCandidates *telemetry.Counter
	acqVariance   *telemetry.Counter
	acqRefines    *telemetry.Counter
	acqFallback   *telemetry.Counter

	// Checkpoint instrumentation (SaveCheckpoint/LoadCheckpoint).
	ckptSaves        *telemetry.Counter
	ckptRestores     *telemetry.Counter
	ckptBytes        *telemetry.Gauge
	ckptRestoreBytes *telemetry.Gauge
	ckptSaveLat      *telemetry.Histogram
	ckptRestoreLat   *telemetry.Histogram
}

// SelectionInfo reports diagnostics from one acquisition step.
type SelectionInfo struct {
	// SafeSetSize is |S_t| including the seed set. Under the adaptive
	// mode it counts the safe points among the evaluated candidates, a
	// lower bound on the full count.
	SafeSetSize int
	// FromSeed is true when no learned control passed the safety test and
	// the acquisition fell back to the seed set S₀.
	FromSeed bool
	// Adaptive reports the agent's resolved acquisition mode: true under
	// AcqAuto above acqAutoThreshold, where the budgeted search runs.
	Adaptive bool
	// CandidatesEvaluated is the number of grid points scored this period
	// — the grid size under full coverage, typically a few percent of it
	// for the adaptive engine. Each got at least the delay and mAP means.
	CandidatesEvaluated int
	// VarianceSolves is the number of those candidates that got their full
	// posterior, σ included: the seeds and the candidates eq. 8 could
	// still certify from their means under full coverage with the safe
	// set on, every scored candidate otherwise.
	VarianceSolves int
	// RefineRounds is the number of multigrid refinement rounds the
	// adaptive engine ran (0 under the exhaustive sweep).
	RefineRounds int
	// LCB is the acquisition value of the selected control (normalized).
	LCB float64
	// Cost, Delay, MAP are the posterior beliefs at the selected control
	// in normalized GP units — the per-objective mean/σ the safe set and
	// acquisition acted on.
	Cost, Delay, MAP Posterior
	// SweepSeconds is the wall-clock latency of the whole acquisition:
	// posterior sweep, safe-set construction, and control selection.
	SweepSeconds float64
}

// NewAgent builds an EdgeBOL agent.
func NewAgent(opts Options) (*Agent, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	// SafeOpt ranks maximizers and expanders against the global best UCB
	// over the safe set, which needs the full posterior arrays the budgeted
	// search exists to avoid, so it always sweeps exhaustively.
	a := &Agent{
		opts:     opts,
		adaptive: opts.Acquisition == AcqAuto && opts.Grid.Size() > acqAutoThreshold && opts.Rule != AcquisitionSafeOpt,
	}
	levelVals, err := opts.Grid.LevelValues()
	if err != nil {
		return nil, err
	}
	ids := []int{gpCost, gpDelay, gpMAP}
	if opts.DecomposedCost {
		ids = []int{gpDelay, gpMAP, gpServerPower, gpBSPower}
	}
	// Per objective id: the LengthScalesPerGP entry, where the power
	// surfaces stand in for the cost, and the noise variance.
	lsEntry := [numObjectives]int{gpCost, gpDelay, gpMAP, gpCost, gpCost}
	noise := [numObjectives]float64{opts.NoiseVars[0], opts.NoiseVars[1], opts.NoiseVars[2], opts.PowerNoiseVars[0], opts.PowerNoiseVars[1]}
	for _, id := range ids {
		ls := opts.LengthScales
		if perGP := opts.LengthScalesPerGP[lsEntry[id]]; perGP != nil {
			ls = perGP
		}
		k, err := gp.NewKernel(opts.Kernel, ls)
		if err != nil {
			return nil, err
		}
		var g *gp.GP
		if opts.Engine == EngineSparse {
			if g, err = gp.NewSparse(k, noise[id], gp.SparseConfig{MaxInducing: opts.InducingPoints}); err != nil {
				return nil, err
			}
		} else {
			g = gp.New(k, noise[id], opts.MaxObservations)
		}
		g.Instrument(opts.Telemetry, objectiveNames[id])
		plan, err := gp.NewSweepPlan(g, ContextDims, levelVals)
		if err != nil {
			return nil, fmt.Errorf("core: %s GP: %w", objectiveNames[id], err)
		}
		plan.Instrument(opts.Telemetry, objectiveNames[id])
		a.objs = append(a.objs, objective{id: id, gp: g, plan: plan})
	}
	// Registry methods are nil-safe: with Telemetry == nil every handle is
	// nil and each instrumented site costs one predictable branch.
	a.met = agentMetrics{
		reg:          opts.Telemetry,
		periods:      opts.Telemetry.Counter("edgebol_core_periods_total"),
		seedFallback: opts.Telemetry.Counter("edgebol_core_seed_fallback_total"),
		safeSize:     opts.Telemetry.Gauge("edgebol_core_safe_set_size"),
		lcb:          opts.Telemetry.Gauge("edgebol_core_acquisition_lcb"),
		trainSize:    opts.Telemetry.Gauge("edgebol_core_gp_train_size"),
		sweep:        opts.Telemetry.Histogram("edgebol_core_sweep_seconds", telemetry.LatencyBuckets()),

		ckptSaves:        opts.Telemetry.Counter("edgebol_ckpt_saves_total"),
		ckptRestores:     opts.Telemetry.Counter("edgebol_ckpt_restores_total"),
		ckptBytes:        opts.Telemetry.Gauge("edgebol_ckpt_bytes"),
		ckptRestoreBytes: opts.Telemetry.Gauge("edgebol_ckpt_restore_bytes"),
		ckptSaveLat:      opts.Telemetry.Histogram("edgebol_ckpt_save_seconds", telemetry.LatencyBuckets()),
		ckptRestoreLat:   opts.Telemetry.Histogram("edgebol_ckpt_restore_seconds", telemetry.LatencyBuckets()),

		acqCandidates: opts.Telemetry.Counter("edgebol_acq_candidates_evaluated"),
		acqVariance:   opts.Telemetry.Counter("edgebol_acq_variance_solves_total"),
		acqRefines:    opts.Telemetry.Counter("edgebol_acq_refine_rounds"),
		acqFallback:   opts.Telemetry.Counter("edgebol_acq_fallback_total"),
	}
	// Locate seed controls on the grid (snapped if off-grid) by direct
	// index arithmetic.
	for _, s := range opts.SafeSeed {
		a.safeSeedIx = append(a.safeSeedIx, opts.Grid.Index(s))
	}
	if len(a.safeSeedIx) == 0 {
		return nil, fmt.Errorf("core: no safe seed maps onto the grid")
	}
	a.acq = newAcqEngine(a)
	return a, nil
}

// learned returns the GP of objective id, or nil when the agent does not
// learn it. Every agent learns delay and mAP.
func (a *Agent) learned(id int) *gp.GP {
	for _, o := range a.objs {
		if o.id == id {
			return o.gp
		}
	}
	return nil
}

// EngineActive reports the engine serving inference, "exact" or
// "sparse": Options.Engine, fixed for the agent's life.
func (a *Agent) EngineActive() string { return a.objs[0].gp.EngineName() }

// AcquisitionEngine reports the resolved acquisition mode, also its
// telemetry label: "exhaustive" or "adaptive" (never "auto").
func (a *Agent) AcquisitionEngine() string {
	if a.adaptive {
		return "adaptive"
	}
	return "exhaustive"
}

// InducingPoints reports the current inducing-basis size of the delay GP
// (every GP runs the same engine, so one is representative); 0 under the
// exact engine.
func (a *Agent) InducingPoints() int {
	if g := a.learned(gpDelay); g.IsSparse() {
		return g.InducingLen()
	}
	return 0
}

// Constraints returns the active constraints.
func (a *Agent) Constraints() Constraints { return a.opts.Constraints }

// SetConstraints replaces the service constraints at runtime. Because the
// agent models the delay and mAP surfaces (not the constraint itself), no
// relearning is needed — the next safe set is computed against the new
// thresholds from existing posteriors, the property Fig. 14 demonstrates.
// Invalid constraints return an *ErrInvalidReconfig naming the offending
// field and leave the agent unchanged; on success every cached safe-set
// and selection diagnostic derived under the old thresholds is
// invalidated.
func (a *Agent) SetConstraints(c Constraints) error {
	if e := c.invalid(); e != nil {
		return e
	}
	a.opts.Constraints = c
	a.invalidateDerived()
	return nil
}

// Weights returns the active cost weights.
func (a *Agent) Weights() CostWeights { return a.opts.Weights }

// SetWeights changes the energy prices δ₁, δ₂ at runtime. It requires
// decomposed-cost mode: there the power surfaces are weight-independent
// and nothing needs relearning, whereas a joint cost GP trained under the
// old prices would silently poison the acquisition. Invalid or
// inapplicable reconfigurations return an *ErrInvalidReconfig naming the
// offending field and leave the agent unchanged; on success every cached
// state derived under the old prices is invalidated.
func (a *Agent) SetWeights(w CostWeights) error {
	if !a.opts.DecomposedCost {
		return &ErrInvalidReconfig{Field: "Weights", Value: w, Reason: "requires DecomposedCost mode"}
	}
	if e := w.invalid(); e != nil {
		return e
	}
	a.opts.Weights = w
	a.invalidateDerived()
	return nil
}

// invalidateDerived drops every piece of cached state computed under the
// previous weights or constraints: the safe-set mask and the last
// selection diagnostics. The per-objective posteriors themselves are
// reconfiguration-independent (the agent models surfaces, not thresholds)
// and are recomputed from scratch by the next SelectControl anyway; the
// mask is cleared so no stale "safe under the old thresholds" bit can be
// observed between the reconfiguration and that next sweep.
func (a *Agent) invalidateDerived() {
	clear(a.acq.safe)
	a.lastInfo = SelectionInfo{}
}

// Observations returns the number of periods observed so far.
func (a *Agent) Observations() int { return a.t }

// SelectControl runs lines 4–7 of Algorithm 1 for the given context:
// compute the posteriors over the grid (under full coverage, σ only where
// the means leave eq. 8 open), build the safe set (eq. 8, always
// including S₀), and minimize the constrained LCB (eq. 9).
// Exhaustive agents evaluate every grid point; adaptive agents a budgeted
// subset (see acquire.go).
func (a *Agent) SelectControl(ctx Context) (Control, SelectionInfo) {
	start := time.Now()
	e := a.acq
	e.reset(ctx)
	if !a.adaptive {
		e.addAll()
		e.flush()
	} else {
		e.addMandatory()
		e.addCoarseLattice()
		e.flush()
		e.refine()
		e.flood()
	}
	return e.finish(start)
}

// Posterior is the agent's belief about one objective at a point.
type Posterior struct {
	Mean, Sigma float64
}

// PosteriorAt returns the posterior beliefs (cost, delay, mAP) the
// selection acts on at a context–control point, for diagnostics and
// visualization. They are in normalized GP units, except that a
// decomposed-cost agent's cost is in raw monetary units (decomposedCost).
func (a *Agent) PosteriorAt(ctx Context, x Control) (cost, delay, mAP Posterior) {
	z := Features(ctx, x)
	var out [numObjectives]Posterior
	for _, o := range a.objs {
		m, s := o.gp.Posterior(z)
		out[o.id] = Posterior{Mean: m, Sigma: s}
	}
	if a.opts.DecomposedCost {
		out[gpCost] = a.decomposedCost(out[gpServerPower], out[gpBSPower])
	}
	return out[gpCost], out[gpDelay], out[gpMAP]
}

// decomposedCost combines a decomposed-cost agent's power posteriors into
// its cost posterior, in raw monetary units (only the ranking matters for
// the acquisition): μ_u = δ₁·p̂_s + δ₂·p̂_b and, with the two surfaces
// modeled as independent GPs, σ_u² = (δ₁·s_s·σ_s)² + (δ₂·s_b·σ_b)².
func (a *Agent) decomposedCost(ps, pb Posterior) Posterior {
	w, s, b := a.opts.Weights, a.opts.Norm.ServerPower, a.opts.Norm.BSPower
	ss, sb := w.Delta1*s.Scale*ps.Sigma, w.Delta2*b.Scale*pb.Sigma
	return Posterior{
		Mean:  w.Delta1*(ps.Mean*s.Scale+s.Center) + w.Delta2*(pb.Mean*b.Scale+b.Center),
		Sigma: math.Sqrt(ss*ss + sb*sb),
	}
}

// Observe runs lines 8–13 of Algorithm 1: it computes the cost from the
// observed KPIs and appends the (context, control) → {u, d, ρ} samples to
// the objectives' GPs, with p_s and p_b in place of u under
// DecomposedCost. It is all-or-nothing on bad input: an out-of-range
// context, control or KPI, or a non-finite feature or normalized target,
// is rejected before any GP changes.
func (a *Agent) Observe(ctx Context, x Control, k KPIs) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	if err := x.Validate(); err != nil {
		return err
	}
	if err := k.Validate(); err != nil {
		return err
	}
	z := Features(ctx, x)
	raw := [numObjectives]float64{a.opts.Weights.Cost(k), k.Delay, k.MAP, k.ServerPower, k.BSPower}
	var y [numObjectives]float64
	for i, af := range normAffines(&a.opts.Norm) {
		y[i] = af.Norm(raw[i])
	}
	if err := checkFinite(z, y[:]...); err != nil {
		return fmt.Errorf("core: observation has %w", err)
	}
	for _, o := range a.objs {
		if err := o.gp.Add(z, y[o.id]); err != nil {
			return fmt.Errorf("core: %s GP: %w", objectiveNames[o.id], err)
		}
	}
	a.t++
	a.met.periods.Inc()
	a.met.trainSize.Set(float64(a.learned(gpDelay).Len()))
	a.emitPeriod(ctx, x, k)
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFinite rejects a training sample — a feature row and its GP
// targets — holding a NaN or infinite value. Observe and SeedHistory run
// it before their first GP append, so a rejected sample changes nothing.
func checkFinite(features []float64, targets ...float64) error {
	for _, v := range features {
		if !finite(v) {
			return fmt.Errorf("non-finite feature %v", v)
		}
	}
	for _, v := range targets {
		if !finite(v) {
			return fmt.Errorf("non-finite target %v", v)
		}
	}
	return nil
}

// emitPeriod streams one telemetry.PeriodRecord combining the Observe
// arguments with the diagnostics of the preceding SelectControl. When the
// caller drives SelectControl and Observe separately the pairing is
// positional: the record's posterior/safe-set fields describe the most
// recent selection.
func (a *Agent) emitPeriod(ctx Context, x Control, k KPIs) {
	if a.met.reg == nil {
		return
	}
	var evictions uint64
	for _, o := range a.objs {
		evictions += o.gp.Evictions()
	}
	info := a.lastInfo
	a.met.reg.EmitPeriod(telemetry.PeriodRecord{
		Period:              a.t,
		NumUsers:            ctx.NumUsers,
		MeanCQI:             ctx.MeanCQI,
		VarCQI:              ctx.VarCQI,
		Resolution:          x.Resolution,
		Airtime:             x.Airtime,
		GPUSpeed:            x.GPUSpeed,
		MCS:                 x.MCS,
		SplitLayer:          x.SplitLayer,
		Delay:               k.Delay,
		GPUDelay:            k.GPUDelay,
		MAP:                 k.MAP,
		ServerPower:         k.ServerPower,
		BSPower:             k.BSPower,
		Cost:                a.opts.Weights.Cost(k),
		SafeSetSize:         info.SafeSetSize,
		FromSeed:            info.FromSeed,
		LCB:                 info.LCB,
		AcqMode:             a.AcquisitionEngine(),
		CandidatesEvaluated: info.CandidatesEvaluated,
		VarianceSolves:      info.VarianceSolves,
		RefineRounds:        info.RefineRounds,
		PostMean:            [3]float64{info.Cost.Mean, info.Delay.Mean, info.MAP.Mean},
		PostSigma:           [3]float64{info.Cost.Sigma, info.Delay.Sigma, info.MAP.Sigma},
		TrainSize:           a.learned(gpDelay).Len(),
		Evictions:           evictions,
		SweepSeconds:        info.SweepSeconds,
	})
}

// Step performs one full control period against an environment: observe
// the context, select a control, measure, and learn. It returns the
// selected control, the observed KPIs, and the selection diagnostics.
func (a *Agent) Step(env Environment) (Control, KPIs, SelectionInfo, error) {
	return a.StepCtx(context.Background(), env)
}

// ContextEnvironment is an Environment whose measurement path honors a
// context.Context — the oran control plane implements it so an in-flight
// period can be bounded or canceled.
type ContextEnvironment interface {
	Environment
	// MeasureCtx is Measure bounded by ctx: cancellation or deadline
	// expiry aborts the period with ctx's error.
	MeasureCtx(ctx context.Context, x Control) (KPIs, error)
}

// StepCtx is Step bounded by a context: the period is abandoned (with
// ctx's error) if ctx is done before selection or learning, and the
// measurement itself is canceled mid-flight when the environment
// implements ContextEnvironment. A context Observe would reject ends the
// period before selection, so no control is actuated for it.
func (a *Agent) StepCtx(ctx context.Context, env Environment) (Control, KPIs, SelectionInfo, error) {
	if err := ctx.Err(); err != nil {
		return Control{}, KPIs{}, SelectionInfo{}, err
	}
	c := env.Context()
	if err := c.Validate(); err != nil {
		return Control{}, KPIs{}, SelectionInfo{}, err
	}
	x, info := a.SelectControl(c)
	if err := ctx.Err(); err != nil {
		return x, KPIs{}, info, err
	}
	var k KPIs
	var err error
	if ce, ok := env.(ContextEnvironment); ok {
		k, err = ce.MeasureCtx(ctx, x)
	} else {
		k, err = env.Measure(x)
	}
	if err != nil {
		return x, KPIs{}, info, err
	}
	// The measurement happened: learn from it even if ctx expired while it
	// ran, so a bounded period never discards a paid-for observation.
	if err := a.Observe(c, x, k); err != nil {
		return x, k, info, err
	}
	return x, k, info, nil
}
