package gp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// State is a complete, self-contained snapshot of a GP's learned state:
// the flat training storage, the packed Cholesky factor exactly as the
// incremental append/evict history left it, and the hyperparameters the
// state was learned under. Restoring a State into a GP constructed with
// the same configuration reproduces every posterior bitwise.
//
// The factor is serialized rather than refactorized on restore because the
// incremental Append arithmetic is not bitwise-reproducible by a batch
// rebuild (the pivot accumulation orders differ); carrying the factor
// verbatim makes the round trip exact by construction and keeps restore at
// O(t²) (one alpha solve) instead of O(t³).
type State struct {
	// Kernel names the covariance family (Family.String).
	Kernel string
	// LengthScales are the kernel's per-dimension length scales.
	LengthScales []float64
	// NoiseVar is the observation-noise variance ζ².
	NoiseVar float64
	// MaxObs is the sliding-window bound (0 = unlimited).
	MaxObs int
	// Dim is the input dimensionality.
	Dim int
	// Xs is the flat row-major training-input matrix, len(Ys)×Dim.
	Xs []float64
	// Ys are the training targets.
	Ys []float64
	// Factor is the packed lower-triangular Cholesky factor of K+ζ²I
	// (linalg.Cholesky.FactorData); nil when the GP holds no observations.
	Factor []float64
	// Jitter is the diagonal regularization recorded in the factor.
	Jitter float64
	// Evictions is the cumulative sliding-window eviction count; sweep
	// plans key their table rebuilds on it, so it must survive a restart.
	Evictions uint64

	// Engine identifies the inference engine the state was learned under:
	// "exact" or "sparse". A state restores only into a GP running the
	// same engine — the learned representations are not interchangeable.
	Engine string

	// Sparse-engine state; meaningful only when Engine == "sparse". The
	// two factors are serialized verbatim for the same reason Factor is:
	// the streaming rank-1/append arithmetic that produced them is not
	// reproducible by a batch refactorization, and α is a deterministic
	// solve against SigFactor and B, so carrying the factors makes the
	// round trip bitwise by construction.
	MaxInducing int
	InsertTol   float64
	SwapMargin  float64
	Zs          []float64 // flat row-major inducing inputs, m×Dim
	Kmm         []float64 // K_mm, compact row-major m×m
	A           []float64 // moment matrix, compact row-major m×m
	B           []float64 // information vector, length m
	SumYY       float64
	KmmFactor   []float64
	KmmJitter   float64
	SigFactor   []float64
	SigJitter   float64
	Inserts     uint64
	Swaps       uint64
	// SinceRefactor preserves the periodic Σ-rebuild cadence across a
	// restart, so a resumed run streams updates exactly like an
	// uninterrupted one.
	SinceRefactor int
}

// Snapshot captures the GP's learned state. Like the read paths it touches
// no mutable state beyond copying, but it must not run concurrently with
// Add (the single-writer contract in the type comment).
func (g *GP) Snapshot() State {
	s := State{
		Kernel:       g.kernel.family.String(),
		LengthScales: append([]float64(nil), g.kernel.ls...),
		NoiseVar:     g.noiseVar,
		MaxObs:       g.maxObs,
		Dim:          g.dim,
		Xs:           append([]float64(nil), g.xs...),
		Ys:           append([]float64(nil), g.ys...),
		Evictions:    g.evictions,
		Engine:       g.EngineName(),
	}
	if g.chol != nil {
		s.Factor = g.chol.FactorData()
		s.Jitter = g.chol.Jitter()
	}
	if sp := g.sp; sp != nil {
		m := sp.m
		stride := sp.cfg.MaxInducing
		s.MaxInducing = sp.cfg.MaxInducing
		s.InsertTol = sp.cfg.InsertTol
		s.SwapMargin = sp.cfg.SwapMargin
		s.Zs = append([]float64(nil), sp.zs...)
		s.Kmm = make([]float64, 0, m*m)
		s.A = make([]float64, 0, m*m)
		for i := 0; i < m; i++ {
			s.Kmm = append(s.Kmm, sp.kmm[i*stride:i*stride+m]...)
			s.A = append(s.A, sp.a[i*stride:i*stride+m]...)
		}
		s.B = append([]float64(nil), sp.b[:m]...)
		s.SumYY = sp.sumYY
		if sp.cholKmm != nil {
			s.KmmFactor = sp.cholKmm.FactorData()
			s.KmmJitter = sp.cholKmm.Jitter()
			s.SigFactor = sp.cholSig.FactorData()
			s.SigJitter = sp.cholSig.Jitter()
		}
		s.Inserts = sp.inserts
		s.Swaps = sp.swaps
		s.SinceRefactor = sp.sinceRefactor
	}
	return s
}

// RestoreFrom replaces the GP's learned state with a snapshot. The
// receiver must have been constructed (New) with the same configuration
// the snapshot was taken under — kernel family and hyperparameters, noise
// variance, observation bound — and RestoreFrom verifies all of it,
// bitwise, so a checkpoint cannot silently graft one model's data onto
// another's covariance. Telemetry handles are untouched; counters are
// process-local and restart from zero by design.
//
// After a successful restore every posterior, batch sweep, and
// log-marginal-likelihood is bitwise identical to the snapshotted GP's.
// On any validation failure the GP is left unchanged.
func (g *GP) RestoreFrom(s State) error {
	if family := g.kernel.family.String(); s.Kernel != family {
		return fmt.Errorf("gp: restore kernel %q into %q", s.Kernel, family)
	}
	if len(s.LengthScales) != len(g.kernel.ls) {
		return fmt.Errorf("gp: restore %d length scales into kernel with %d", len(s.LengthScales), len(g.kernel.ls))
	}
	for i, l := range g.kernel.ls {
		if s.LengthScales[i] != l { //edgebol:allow floateq -- restore demands the exact hyperparameters the snapshot was trained with
			return fmt.Errorf("gp: restore length scale %d: %v does not match kernel's %v", i, s.LengthScales[i], l)
		}
	}
	if s.NoiseVar != g.noiseVar { //edgebol:allow floateq -- restore demands the exact hyperparameters the snapshot was trained with
		return fmt.Errorf("gp: restore noise variance %v into %v", s.NoiseVar, g.noiseVar)
	}
	if s.MaxObs != g.maxObs {
		return fmt.Errorf("gp: restore observation bound %d into %d", s.MaxObs, g.maxObs)
	}
	if s.Dim != g.dim {
		return fmt.Errorf("gp: restore dimension %d into %d", s.Dim, g.dim)
	}
	if s.Engine != g.EngineName() {
		return fmt.Errorf("gp: restore %s-engine snapshot into %s engine", s.Engine, g.EngineName())
	}
	n := len(s.Ys)
	// The sliding window does not apply in sparse mode (eviction is a
	// no-op there), so an arbitrarily long retained history is legal.
	if g.sp == nil && g.maxObs > 0 && n > g.maxObs {
		return fmt.Errorf("gp: restore %d observations over the bound %d", n, g.maxObs)
	}
	if len(s.Xs) != n*g.dim {
		return fmt.Errorf("gp: restore %d input values for %d observations of dimension %d", len(s.Xs), n, g.dim)
	}
	for _, v := range s.Xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gp: non-finite restored input %v", v)
		}
	}
	for _, v := range s.Ys {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gp: non-finite restored observation %v", v)
		}
	}
	if g.sp != nil {
		return g.restoreSparse(s, n)
	}
	if n == 0 {
		if len(s.Factor) != 0 {
			return fmt.Errorf("gp: restore factor of %d entries with no observations", len(s.Factor))
		}
		g.xs, g.ys, g.chol, g.alpha = nil, nil, nil, nil
		g.evictions = s.Evictions
		return nil
	}
	chol, err := linalg.NewCholeskyFromFactor(n, s.Factor, s.Jitter)
	if err != nil {
		return fmt.Errorf("gp: restore factor: %w", err)
	}
	g.xs = append([]float64(nil), s.Xs...)
	g.ys = append([]float64(nil), s.Ys...)
	g.chol = chol
	g.alpha = nil
	g.refreshAlpha()
	g.evictions = s.Evictions
	return nil
}

// restoreSparse rebuilds the inducing-point state from a sparse snapshot.
// Like the exact path it validates everything before mutating, carries
// both factors verbatim, and recomputes α with the same deterministic
// solve the streaming path uses — so a restored sparse GP reproduces
// every posterior bitwise. Called by RestoreFrom after the shared
// validation; g.sp is non-nil.
func (g *GP) restoreSparse(s State, n int) error {
	cfg := g.sp.cfg
	if s.MaxInducing != cfg.MaxInducing {
		return fmt.Errorf("gp: restore inducing budget %d into %d", s.MaxInducing, cfg.MaxInducing)
	}
	if s.InsertTol != cfg.InsertTol { //edgebol:allow floateq -- restore demands the exact engine configuration the snapshot ran under
		return fmt.Errorf("gp: restore insert tolerance %v into %v", s.InsertTol, cfg.InsertTol)
	}
	if s.SwapMargin != cfg.SwapMargin { //edgebol:allow floateq -- restore demands the exact engine configuration the snapshot ran under
		return fmt.Errorf("gp: restore swap margin %v into %v", s.SwapMargin, cfg.SwapMargin)
	}
	m := len(s.B)
	if m > cfg.MaxInducing {
		return fmt.Errorf("gp: restore %d inducing points over the budget %d", m, cfg.MaxInducing)
	}
	if m == 0 && n > 0 {
		return fmt.Errorf("gp: restore %d observations with an empty inducing set", n)
	}
	if len(s.Zs) != m*g.dim {
		return fmt.Errorf("gp: restore %d inducing values for %d points of dimension %d", len(s.Zs), m, g.dim)
	}
	if len(s.Kmm) != m*m || len(s.A) != m*m {
		return fmt.Errorf("gp: restore moment blocks of %d, %d values for %d inducing points", len(s.Kmm), len(s.A), m)
	}
	for _, block := range [][]float64{s.Zs, s.Kmm, s.A, s.B} {
		for _, v := range block {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("gp: non-finite restored sparse value %v", v)
			}
		}
	}
	if math.IsNaN(s.SumYY) || math.IsInf(s.SumYY, 0) || s.SumYY < 0 {
		return fmt.Errorf("gp: invalid restored moment Σy² = %v", s.SumYY)
	}
	sp := newSparseState(cfg, g.dim)
	if m > 0 {
		cholKmm, err := linalg.NewCholeskyFromFactor(m, s.KmmFactor, s.KmmJitter)
		if err != nil {
			return fmt.Errorf("gp: restore inducing factor: %w", err)
		}
		cholSig, err := linalg.NewCholeskyFromFactor(m, s.SigFactor, s.SigJitter)
		if err != nil {
			return fmt.Errorf("gp: restore Σ factor: %w", err)
		}
		sp.cholKmm, sp.cholSig = cholKmm, cholSig
	} else if len(s.KmmFactor) != 0 || len(s.SigFactor) != 0 {
		return fmt.Errorf("gp: restore factors with no inducing points")
	}
	stride := cfg.MaxInducing
	sp.zs = append(sp.zs, s.Zs...)
	sp.m = m
	for i := 0; i < m; i++ {
		copy(sp.kmm[i*stride:i*stride+m], s.Kmm[i*m:(i+1)*m])
		copy(sp.a[i*stride:i*stride+m], s.A[i*m:(i+1)*m])
	}
	copy(sp.b, s.B)
	sp.sumYY = s.SumYY
	sp.inserts = s.Inserts
	sp.swaps = s.Swaps
	sp.sinceRefactor = s.SinceRefactor
	if m > 0 {
		sp.refreshAlpha(g.noiseVar)
	}
	g.xs = append([]float64(nil), s.Xs...)
	g.ys = append([]float64(nil), s.Ys...)
	g.chol, g.alpha = nil, nil
	g.sp = sp
	g.evictions = s.Evictions
	g.met.inducing.Set(float64(m))
	return nil
}
