package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/gp"
)

// ErrCheckpointMismatch is wrapped by LoadCheckpoint when the checkpoint
// was taken under a different fixed configuration than the Options the
// caller supplied — a different grid, kernel, normalization, or mode.
// Runtime-mutable state (weights, constraints, period counter, GP data)
// never trips it: that state is restored, not compared.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match agent configuration")

// secMeta tags the section holding the period counter, mode flags, grid
// spec, weights, constraints, betas, normalization, safe seed, and the
// objective inventory. Critical (see internal/checkpoint for the container
// format and the critical/ancillary convention). Older writers also
// emitted an ancillary "safe" section (a safe-set mask); the reader skips
// it like any unknown ancillary tag.
const secMeta = "META"

// objectiveTags name the per-objective GP state sections, indexed by
// objective id.
var objectiveTags = [numObjectives]string{"GP00", "GP01", "GP02", "PW00", "PW01"}

// knownCriticalTag reports whether this reader understands a critical
// section tag; LoadCheckpoint rejects checkpoints carrying critical
// sections it does not understand (the container's forward-compat rule).
// Every objective's tag is known, so a decomposed-cost checkpoint that
// still carries an empty cost section ("GP00") restores; the reader skips
// that section.
func knownCriticalTag(tag string) bool {
	return tag == secMeta || slices.Contains(objectiveTags[:], tag)
}

// CheckpointInfo summarizes a checkpoint without restoring it.
type CheckpointInfo struct {
	// Version is the container format version.
	Version uint16
	// Periods is the agent's period counter at save time.
	Periods int
	// DecomposedCost reports whether the agent learned the two power
	// surfaces in place of the cost: its checkpoint carries the delay, mAP,
	// server power and BS power GPs.
	DecomposedCost bool
	// Engine is the engine selector the agent was configured with
	// ("exact" or "sparse").
	Engine string
	// InducingPoints is the resolved sparse-engine basis budget.
	InducingPoints int
	// Acquisition is the configured acquisition mode ("auto" or
	// "exhaustive").
	Acquisition string
	// Objectives lists each serialized GP and its retained observation
	// count, in section order.
	Objectives []ObjectiveSize
}

// ObjectiveSize is one entry of CheckpointInfo.Objectives.
type ObjectiveSize struct {
	Name         string
	Observations int
	// Engine is the engine this GP runs ("exact" or "sparse").
	Engine string
	// InducingPoints is the GP's current inducing-basis size (0 when
	// exact).
	InducingPoints int
}

// metaState is the decoded META section.
type metaState struct {
	t              uint64
	decomposed     bool
	disableSafeSet bool
	rule           AcquisitionRule
	grid           GridSpec
	weights        CostWeights
	constraints    Constraints
	safeBeta       float64
	acqBeta        float64
	norm           Normalization
	safeSeed       []Control
	objectives     []ObjectiveSize
	engine         EngineSelector
	inducingPoints int
	acqMode        AcquisitionMode
}

// normAffines flattens a Normalization into its five transforms in a
// fixed serialization order.
func normAffines(n *Normalization) [5]*Affine {
	return [5]*Affine{&n.Cost, &n.Delay, &n.MAP, &n.ServerPower, &n.BSPower}
}

func (a *Agent) encodeMeta() []byte {
	var e checkpoint.Encoder
	e.U64(uint64(a.t))
	e.Bool(a.opts.DecomposedCost)
	e.Bool(a.opts.DisableSafeSet)
	e.U8(uint8(a.opts.Rule))
	e.U32(uint32(a.opts.Grid.Levels))
	e.F64(a.opts.Grid.MinResolution)
	e.F64(a.opts.Grid.MinAirtime)
	e.F64(a.opts.Weights.Delta1)
	e.F64(a.opts.Weights.Delta2)
	e.F64(a.opts.Constraints.MaxDelay)
	e.F64(a.opts.Constraints.MinMAP)
	e.F64(a.opts.SafeBeta)
	e.F64(a.opts.AcqBeta)
	norm := a.opts.Norm
	for _, af := range normAffines(&norm) {
		e.F64(af.Center)
		e.F64(af.Scale)
	}
	e.U32(uint32(len(a.opts.SafeSeed)))
	for _, s := range a.opts.SafeSeed {
		e.F64(s.Resolution)
		e.F64(s.Airtime)
		e.F64(s.GPUSpeed)
		e.F64(s.MCS)
		e.F64(s.SplitLayer)
	}
	// Objective inventory: lets ReadCheckpointInfo report per-GP sizes
	// from the META section alone, without touching the GP payloads.
	e.U32(uint32(len(a.objs)))
	for _, o := range a.objs {
		e.String(objectiveNames[o.id])
		e.U64(uint64(o.gp.Len()))
	}
	// The engine selector with its resolved basis budget, a reserved u64
	// (once a mid-run engine-switch threshold; written as 0, skipped on
	// read), then per-objective engine identity (same order as the
	// inventory above) so `ckpt info` can report the engine and basis
	// sizes without touching the GP payloads.
	e.U8(uint8(a.opts.Engine))
	e.U64(uint64(a.opts.InducingPoints))
	e.U64(0)
	for _, o := range a.objs {
		e.String(o.gp.EngineName())
		e.U64(uint64(o.gp.InducingLen()))
	}
	// The acquisition mode (as configured, so AcqAuto round-trips as
	// AcqAuto) and the per-dimension grid level counts.
	e.U8(uint8(a.opts.Acquisition))
	for _, n := range a.opts.Grid.LevelsPerDim {
		e.U32(uint32(n))
	}
	return e.Bytes()
}

func decodeMeta(data []byte) (*metaState, error) {
	d := checkpoint.NewDecoder(data)
	m := &metaState{}
	m.t = d.U64()
	m.decomposed = d.Bool()
	m.disableSafeSet = d.Bool()
	m.rule = AcquisitionRule(d.U8())
	m.grid.Levels = int(d.U32())
	m.grid.MinResolution = d.F64()
	m.grid.MinAirtime = d.F64()
	m.weights.Delta1 = d.F64()
	m.weights.Delta2 = d.F64()
	m.constraints.MaxDelay = d.F64()
	m.constraints.MinMAP = d.F64()
	m.safeBeta = d.F64()
	m.acqBeta = d.F64()
	for _, af := range normAffines(&m.norm) {
		af.Center = d.F64()
		af.Scale = d.F64()
	}
	nSeed := int(d.U32())
	// Every seed takes 40 payload bytes; bounding by the remaining bytes
	// keeps a hostile count from forcing a huge allocation.
	if d.Err() == nil && nSeed > d.Remaining()/40 {
		return nil, fmt.Errorf("%w: %d safe seeds declared, %d bytes remain", checkpoint.ErrTruncated, nSeed, d.Remaining())
	}
	for i := 0; i < nSeed && d.Err() == nil; i++ {
		m.safeSeed = append(m.safeSeed, Control{
			Resolution: d.F64(),
			Airtime:    d.F64(),
			GPUSpeed:   d.F64(),
			MCS:        d.F64(),
			SplitLayer: d.F64(),
		})
	}
	nObj := int(d.U32())
	// A name prefix plus the count is at least 12 bytes per objective.
	if d.Err() == nil && nObj > d.Remaining()/12 {
		return nil, fmt.Errorf("%w: %d objectives declared, %d bytes remain", checkpoint.ErrTruncated, nObj, d.Remaining())
	}
	for i := 0; i < nObj && d.Err() == nil; i++ {
		name := d.String()
		obs := d.U64()
		m.objectives = append(m.objectives, ObjectiveSize{Name: name, Observations: int(obs)})
	}
	m.engine = EngineSelector(d.U8())
	m.inducingPoints = int(d.U64())
	d.U64() // reserved
	for i := range m.objectives {
		if d.Err() != nil {
			break
		}
		m.objectives[i].Engine = d.String()
		m.objectives[i].InducingPoints = int(d.U64())
	}
	if d.Err() == nil && (m.engine < EngineExact || m.engine > EngineSparse) {
		return nil, fmt.Errorf("%w: unknown engine selector %d", checkpoint.ErrMalformed, m.engine)
	}
	if d.Err() == nil && m.inducingPoints < 0 {
		return nil, fmt.Errorf("%w: negative sparse configuration", checkpoint.ErrMalformed)
	}
	m.acqMode = AcquisitionMode(d.U8())
	for i := range m.grid.LevelsPerDim {
		m.grid.LevelsPerDim[i] = int(d.U32())
	}
	if d.Err() == nil && (m.acqMode < AcqAuto || m.acqMode > AcqExhaustive) {
		return nil, fmt.Errorf("%w: unknown acquisition mode %d", checkpoint.ErrMalformed, m.acqMode)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: META section: %w", err)
	}
	return m, nil
}

// encodeGPState serializes a gp.State as one section payload: the exact
// engine's state, then the engine identity and, verbatim, the sparse
// engine's streamed state (bases, moments, both Cholesky factors) so a
// restore is bitwise lossless.
func encodeGPState(s gp.State) []byte {
	var e checkpoint.Encoder
	e.String(s.Kernel)
	e.F64s(s.LengthScales)
	e.F64(s.NoiseVar)
	e.U64(uint64(s.MaxObs))
	e.U32(uint32(s.Dim))
	e.F64s(s.Xs)
	e.F64s(s.Ys)
	e.F64s(s.Factor)
	e.F64(s.Jitter)
	e.U64(s.Evictions)
	e.String(s.Engine)
	e.U32(uint32(s.MaxInducing))
	e.F64(s.InsertTol)
	e.F64(s.SwapMargin)
	e.F64s(s.Zs)
	e.F64s(s.Kmm)
	e.F64s(s.A)
	e.F64s(s.B)
	e.F64(s.SumYY)
	e.F64s(s.KmmFactor)
	e.F64(s.KmmJitter)
	e.F64s(s.SigFactor)
	e.F64(s.SigJitter)
	e.U64(s.Inserts)
	e.U64(s.Swaps)
	e.U64(uint64(s.SinceRefactor))
	return e.Bytes()
}

func decodeGPState(data []byte) (gp.State, error) {
	d := checkpoint.NewDecoder(data)
	var s gp.State
	s.Kernel = d.String()
	s.LengthScales = d.F64s()
	s.NoiseVar = d.F64()
	s.MaxObs = int(d.U64())
	s.Dim = int(d.U32())
	s.Xs = d.F64s()
	s.Ys = d.F64s()
	s.Factor = d.F64s()
	s.Jitter = d.F64()
	s.Evictions = d.U64()
	s.Engine = d.String()
	s.MaxInducing = int(d.U32())
	s.InsertTol = d.F64()
	s.SwapMargin = d.F64()
	s.Zs = d.F64s()
	s.Kmm = d.F64s()
	s.A = d.F64s()
	s.B = d.F64s()
	s.SumYY = d.F64()
	s.KmmFactor = d.F64s()
	s.KmmJitter = d.F64()
	s.SigFactor = d.F64s()
	s.SigJitter = d.F64()
	s.Inserts = d.U64()
	s.Swaps = d.U64()
	s.SinceRefactor = int(d.U64())
	if err := d.Done(); err != nil {
		return gp.State{}, err
	}
	if s.MaxObs < 0 || s.Dim < 0 || s.MaxInducing < 0 || s.SinceRefactor < 0 {
		return gp.State{}, fmt.Errorf("%w: negative GP bounds", checkpoint.ErrMalformed)
	}
	return s, nil
}

// SaveCheckpoint serializes the agent's full learned state — period
// counter, runtime-mutable weights and constraints, and every GP's
// training rows, targets, and Cholesky factor — as a versioned checkpoint
// stream. A checkpoint loaded back through LoadCheckpoint with the same
// Options continues bitwise identically to the uninterrupted agent (the
// restore-equivalence guarantee; see DESIGN.md §11).
//
// SaveCheckpoint must not run concurrently with SelectControl or Observe
// (the Agent is not safe for concurrent use).
func (a *Agent) SaveCheckpoint(w io.Writer) error {
	start := time.Now()
	sections := make([]checkpoint.Section, 0, 1+len(a.objs))
	sections = append(sections, checkpoint.Section{Tag: secMeta, Data: a.encodeMeta()})
	for _, o := range a.objs {
		sections = append(sections, checkpoint.Section{Tag: objectiveTags[o.id], Data: encodeGPState(o.gp.Snapshot())})
	}
	cw := &countingWriter{w: w}
	if err := checkpoint.Encode(cw, sections); err != nil {
		return err
	}
	a.met.ckptSaves.Inc()
	a.met.ckptBytes.Set(float64(cw.n))
	a.met.ckptSaveLat.Observe(time.Since(start).Seconds())
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func mismatch(field string, ckpt, opts any) error {
	return fmt.Errorf("%w: %s: checkpoint has %v, options have %v", ErrCheckpointMismatch, field, ckpt, opts)
}

// LoadCheckpoint constructs a fresh agent from opts and restores a
// checkpoint stream into it. The caller supplies the same Options the
// checkpointed agent was built with — the checkpoint carries the learned
// state, not the code-level configuration (telemetry registries cannot be
// serialized) — and LoadCheckpoint verifies, bitwise, every piece of fixed
// configuration the checkpoint does record: grid, betas, acquisition,
// modes, normalization, safe seed, and each GP's kernel family and
// hyperparameters. A mismatch wraps ErrCheckpointMismatch.
//
// Runtime-mutable state is restored from the checkpoint, overriding opts:
// cost weights (SetWeights), constraints (SetConstraints), the period
// counter, and every GP's training state. The restored agent's subsequent
// selections and posteriors are bitwise identical to the saved agent's.
func LoadCheckpoint(r io.Reader, opts Options) (*Agent, error) {
	start := time.Now()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	arch, err := checkpoint.DecodeBytes(data)
	if err != nil {
		return nil, err
	}
	for _, s := range arch.Sections {
		if s.Critical() && !knownCriticalTag(s.Tag) {
			return nil, fmt.Errorf("%w: unknown critical section %q", checkpoint.ErrMalformed, s.Tag)
		}
	}
	metaSec := arch.Find(secMeta)
	if metaSec == nil {
		return nil, fmt.Errorf("%w: missing %s section", checkpoint.ErrMalformed, secMeta)
	}
	meta, err := decodeMeta(metaSec.Data)
	if err != nil {
		return nil, err
	}
	a, err := NewAgent(opts)
	if err != nil {
		return nil, err
	}
	// Engine identity is fixed configuration: the learned state's meaning
	// depends on the engine that produced it. The selector must match
	// bitwise, and the basis budget is compared only where it shapes
	// behaviour (the sparse engine).
	if meta.engine != a.opts.Engine {
		return nil, mismatch("Engine", meta.engine, a.opts.Engine)
	}
	if a.opts.Engine == EngineSparse && meta.inducingPoints != a.opts.InducingPoints {
		return nil, mismatch("InducingPoints", meta.inducingPoints, a.opts.InducingPoints)
	}
	// Fixed configuration must match bitwise: the learned state is only
	// meaningful under the exact grid, priors, and normalization it was
	// learned with.
	if meta.decomposed != a.opts.DecomposedCost {
		return nil, mismatch("DecomposedCost", meta.decomposed, a.opts.DecomposedCost)
	}
	if meta.disableSafeSet != a.opts.DisableSafeSet {
		return nil, mismatch("DisableSafeSet", meta.disableSafeSet, a.opts.DisableSafeSet)
	}
	if meta.rule != a.opts.Rule {
		return nil, mismatch("Rule", meta.rule, a.opts.Rule)
	}
	if meta.acqMode != a.opts.Acquisition {
		return nil, mismatch("Acquisition", meta.acqMode, a.opts.Acquisition)
	}
	if meta.grid != a.opts.Grid {
		return nil, mismatch("Grid", meta.grid, a.opts.Grid)
	}
	if meta.safeBeta != a.opts.SafeBeta { //edgebol:allow floateq -- fixed config must match bitwise for restore equivalence
		return nil, mismatch("SafeBeta", meta.safeBeta, a.opts.SafeBeta)
	}
	if meta.acqBeta != a.opts.AcqBeta { //edgebol:allow floateq -- fixed config must match bitwise for restore equivalence
		return nil, mismatch("AcqBeta", meta.acqBeta, a.opts.AcqBeta)
	}
	ckptNorm, optsNorm := normAffines(&meta.norm), normAffines(&a.opts.Norm)
	for i, af := range ckptNorm {
		if *af != *optsNorm[i] {
			return nil, mismatch("Norm", *af, *optsNorm[i])
		}
	}
	if len(meta.safeSeed) != len(a.opts.SafeSeed) {
		return nil, mismatch("SafeSeed length", len(meta.safeSeed), len(a.opts.SafeSeed))
	}
	for i, s := range meta.safeSeed {
		if s != a.opts.SafeSeed[i] {
			return nil, mismatch(fmt.Sprintf("SafeSeed[%d]", i), s, a.opts.SafeSeed[i])
		}
	}
	// Runtime-mutable state: validate like the setters, then restore.
	if err := meta.constraints.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint constraints: %w", err)
	}
	w := meta.weights
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if !a.opts.DecomposedCost && w != a.opts.Weights {
		// In joint-cost mode weights cannot legally change at runtime, so a
		// checkpoint carrying different weights was taken under a different
		// (weight-dependent) cost normalization — reject rather than mix.
		return nil, mismatch("Weights", w, a.opts.Weights)
	}
	a.opts.Constraints = meta.constraints
	a.opts.Weights = w
	a.t = int(meta.t)
	for _, o := range a.objs {
		tag := objectiveTags[o.id]
		sec := arch.Find(tag)
		if sec == nil {
			return nil, fmt.Errorf("%w: missing %s section", checkpoint.ErrMalformed, tag)
		}
		st, err := decodeGPState(sec.Data)
		if err != nil {
			return nil, fmt.Errorf("core: section %s: %w", tag, err)
		}
		if err := o.gp.RestoreFrom(st); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointMismatch, objectiveNames[o.id], err)
		}
	}
	a.met.ckptRestores.Inc()
	a.met.ckptRestoreBytes.Set(float64(len(data)))
	a.met.ckptRestoreLat.Observe(time.Since(start).Seconds())
	return a, nil
}

// ReadCheckpointInfo summarizes a checkpoint stream — format version,
// period counter, and per-objective observation counts — without
// constructing an agent. It validates the container (magic, version,
// every CRC) and the META section only; unlike LoadCheckpoint it
// tolerates unknown critical sections, since inspection is not restore.
func ReadCheckpointInfo(r io.Reader) (CheckpointInfo, error) {
	arch, err := checkpoint.Decode(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	metaSec := arch.Find(secMeta)
	if metaSec == nil {
		return CheckpointInfo{}, fmt.Errorf("%w: missing %s section", checkpoint.ErrMalformed, secMeta)
	}
	meta, err := decodeMeta(metaSec.Data)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{
		Version:        arch.Version,
		Periods:        int(meta.t),
		DecomposedCost: meta.decomposed,
		Engine:         meta.engine.String(),
		InducingPoints: meta.inducingPoints,
		Acquisition:    meta.acqMode.String(),
		Objectives:     meta.objectives,
	}, nil
}
