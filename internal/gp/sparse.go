package gp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// SparseConfig configures the inducing-point (DTC/Nyström) engine. The
// zero value of any field selects its default.
type SparseConfig struct {
	// MaxInducing is the inducing-point budget m: posterior cost is O(m²)
	// per candidate regardless of how many observations have streamed in.
	// Default 128 — large enough that the sparse posterior tracks the
	// exact one to ~1e-2 σ on EdgeBOL's normalized 7-dim surfaces, small
	// enough that a full 11⁴-grid sweep runs in tens of milliseconds.
	MaxInducing int
	// InsertTol is the novelty threshold for growing the basis while under
	// budget: a point is admitted when its Nyström residual variance
	// exceeds InsertTol·prior. Default 1e-3.
	InsertTol float64
	// SwapMargin gates basis swaps once the budget is full: the candidate's
	// residual variance times the victim's redundancy diag(K_mm⁻¹) must
	// exceed this (dimensionless) margin. Default 4 — high enough that the
	// basis settles instead of thrashing on near-duplicate contexts.
	SwapMargin float64
}

func (c SparseConfig) withDefaults() SparseConfig {
	if c.MaxInducing == 0 {
		c.MaxInducing = 128
	}
	if c.InsertTol == 0 {
		c.InsertTol = 1e-3
	}
	if c.SwapMargin == 0 {
		c.SwapMargin = 4
	}
	return c
}

func (c SparseConfig) validate() error {
	if c.MaxInducing < 1 {
		return fmt.Errorf("gp: inducing budget %d must be at least 1", c.MaxInducing)
	}
	if c.InsertTol < 0 || math.IsNaN(c.InsertTol) {
		return fmt.Errorf("gp: invalid insert tolerance %v", c.InsertTol)
	}
	if c.SwapMargin < 0 || math.IsNaN(c.SwapMargin) {
		return fmt.Errorf("gp: invalid swap margin %v", c.SwapMargin)
	}
	return nil
}

// sparseRefactorEvery bounds the drift of the rank-1-updated Σ factor: after
// this many streaming updates the factor is rebuilt from the accumulated
// moments. 256 keeps the amortized refactorization cost below one rank-1
// update while holding the factor within a few ulps of a fresh build.
const sparseRefactorEvery = 256

// sparseState is the inducing-point engine grafted onto a GP when it runs
// in sparse mode (GP.sp != nil). It maintains the DTC posterior
//
//	Σ        = K_mm + ζ⁻²·A,   A = Σ_t k_m(x_t)·k_m(x_t)ᵀ
//	α        = ζ⁻²·Σ⁻¹·b,      b = Σ_t y_t·k_m(x_t)
//	μ(x)     = k_m(x)ᵀ·α
//	σ²(x)    = k(x,x) − ‖L_mm⁻¹k_m(x)‖² + ‖L_Σ⁻¹k_m(x)‖²
//
// where k_m(x) is the cross-covariance to the m inducing inputs. A and b
// are per-basis-point sums over the history, so removing a basis point is
// exact row/column deletion — no history pass — while inserting one costs
// a single O(t·m·d) pass to build its row.
//
// The basis, K_mm and its factor depend on the inputs x and the kernel
// alone: admission (sparseAdmit) reads τ and diag(K_mm⁻¹), and K_mm has no
// noise term. GPs fed the same inputs on one kernel therefore build
// bitwise-equal K_mm factors through the same Append and refactorAll
// calls, and only Σ and α tell them apart; a sweep's column group solves
// the ‖L_mm⁻¹k_m(x)‖² term once for all of them.
//
// kmm and a use a fixed stride of cfg.MaxInducing so the basis grows and
// shrinks without reshaping; the live block is the leading m×m.
type sparseState struct {
	cfg SparseConfig

	zs []float64 // flat row-major inducing inputs, m×dim
	m  int

	kmm []float64 // K_mm, MaxInducing-stride square
	a   []float64 // A moment matrix, MaxInducing-stride square
	b   []float64 // information vector, length MaxInducing (live [:m])

	cholKmm *linalg.Cholesky // factor of K_mm (+jitter)
	cholSig *linalg.Cholesky // factor of Σ, rank-1 streamed + periodically rebuilt
	alpha   []float64        // ζ⁻²·Σ⁻¹·b, length MaxInducing (live [:m])

	sumYY float64 // Σ y², for the streaming log marginal likelihood

	// qdiag caches diag(K_mm⁻¹) — the redundancy scores that pick swap
	// victims — lazily per basis generation.
	qdiag      []float64
	qdiagValid bool

	inserts, swaps uint64
	sinceRefactor  int

	// Mutation-path scratch (never touched by the concurrent read paths).
	kbuf, vbuf []float64
	solve1     [][]float64
}

func newSparseState(cfg SparseConfig, dim int) *sparseState {
	capm := cfg.MaxInducing
	return &sparseState{
		cfg:    cfg,
		zs:     make([]float64, 0, capm*dim),
		kmm:    make([]float64, capm*capm),
		a:      make([]float64, capm*capm),
		b:      make([]float64, capm),
		alpha:  make([]float64, 0, capm),
		qdiag:  make([]float64, capm),
		kbuf:   make([]float64, capm),
		vbuf:   make([]float64, capm),
		solve1: make([][]float64, 1),
	}
}

// NewSparse returns a GP running the inducing-point engine from the start.
// Kernel and noise validation match New; the sliding-window bound does not
// apply (the basis budget is the memory bound — see Add).
func NewSparse(kernel *Kernel, noiseVar float64, cfg SparseConfig) (*GP, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := New(kernel, noiseVar, 0)
	g.sp = newSparseState(cfg, g.dim)
	return g, nil
}

// IsSparse reports whether the GP runs the inducing-point engine.
func (g *GP) IsSparse() bool { return g.sp != nil }

// EngineName returns "sparse" or "exact", the identifier used by
// checkpoints and telemetry labels.
func (g *GP) EngineName() string {
	if g.sp != nil {
		return "sparse"
	}
	return "exact"
}

// InducingLen returns the current inducing-set size (0 in exact mode).
func (g *GP) InducingLen() int {
	if g.sp == nil {
		return 0
	}
	return g.sp.m
}

// MaxInducing returns the inducing budget m (0 in exact mode).
func (g *GP) MaxInducing() int {
	if g.sp == nil {
		return 0
	}
	return g.sp.cfg.MaxInducing
}

// InducingInserts returns the cumulative number of basis insertions.
func (g *GP) InducingInserts() uint64 {
	if g.sp == nil {
		return 0
	}
	return g.sp.inserts
}

// InducingSwaps returns the cumulative number of basis swaps. Sweep plans
// key their table rebuilds on it in sparse mode, the way Evictions() keys
// them in exact mode: a swap renumbers the basis rows.
func (g *GP) InducingSwaps() uint64 {
	if g.sp == nil {
		return 0
	}
	return g.sp.swaps
}

// SparseConfigOf returns the engine configuration (zero value in exact
// mode).
func (g *GP) SparseConfigOf() SparseConfig {
	if g.sp == nil {
		return SparseConfig{}
	}
	return g.sp.cfg
}

// addSparse is the Add path of the sparse engine: decide basis membership,
// retain the observation, fold it into the moments, and refresh telemetry.
// The admission step sees the history *before* x — an inserted basis
// point's moment row is built from past observations only — and the
// learning step then adds x's own contribution over the (possibly grown)
// basis, so the two passes never double-count.
func (g *GP) addSparse(x []float64, y float64) error {
	g.sparseAdmit(x)
	g.xs = append(g.xs, x...)
	g.ys = append(g.ys, y)
	g.sparseLearn(x, y)
	g.met.observations.Inc()
	g.met.inducing.Set(float64(g.sp.m))
	return nil
}

// sparseAdmit decides whether x joins the inducing set: under budget it is
// inserted when its Nyström residual variance τ = k(x,x) − ‖L_mm⁻¹k_m(x)‖²
// clears the novelty threshold; at budget it displaces the most redundant
// basis point when τ·diag(K_mm⁻¹) clears the swap margin.
func (g *GP) sparseAdmit(x []float64) {
	sp := g.sp
	m := sp.m
	if m == 0 {
		g.sparseInsert(x)
		return
	}
	k := sp.kbuf[:m]
	g.kernel.EvalBatch(sp.zs, g.dim, x, k)
	v := sp.vbuf[:m]
	copy(v, k)
	sp.solve1[0] = v
	sp.cholKmm.ForwardSolveBatch(sp.solve1)
	tau := priorVar - linalg.Dot(v, v)
	if tau < 0 {
		tau = 0
	}
	if m < sp.cfg.MaxInducing {
		if tau > sp.cfg.InsertTol*priorVar {
			g.sparseInsert(x)
		}
		return
	}
	victim := sp.victim()
	if tau*sp.qdiag[victim] > sp.cfg.SwapMargin {
		g.sparseRemove(victim)
		g.sparseInsert(x)
		sp.swaps++
		g.met.swapsCtr.Inc()
	}
}

// victim returns the index of the most redundant basis point — the argmax
// of diag(K_mm⁻¹) = ‖L_mm⁻¹e_i‖², computed lazily once per basis
// generation (O(m³), invalidated by insert/remove).
func (sp *sparseState) victim() int {
	m := sp.m
	if !sp.qdiagValid {
		for i := 0; i < m; i++ {
			e := sp.vbuf[:m]
			for j := range e {
				e[j] = 0
			}
			e[i] = 1
			sp.solve1[0] = e
			sp.cholKmm.ForwardSolveBatch(sp.solve1)
			sp.qdiag[i] = linalg.Dot(e, e)
		}
		sp.qdiagValid = true
	}
	best := 0
	for i := 1; i < m; i++ {
		if sp.qdiag[i] > sp.qdiag[best] {
			best = i
		}
	}
	return best
}

// sparseInsert appends z to the inducing set: one O(t·m·d) history pass
// builds its moment row/column and information entry, then both factors
// grow by one bordered row in O(m²).
func (g *GP) sparseInsert(z []float64) {
	sp := g.sp
	m := sp.m
	stride := sp.cfg.MaxInducing
	t := g.Len()

	kz := sp.kbuf[:m]
	g.kernel.EvalBatch(sp.zs, g.dim, z, kz)

	// New moment row over the history: A[m][j] = Σ_t k_j(x_t)·k_z(x_t),
	// b[m] = Σ_t y_t·k_z(x_t). Per-basis-point sums are independent, so
	// this is the only place a history pass ever happens.
	newRow := make([]float64, m)
	var newDiag, newB float64
	if t > 0 {
		kn := make([]float64, t)
		g.kernel.EvalBatch(g.xs, g.dim, z, kn)
		newB = linalg.Dot(g.ys, kn)
		newDiag = linalg.Dot(kn, kn)
		col := make([]float64, t)
		for j := 0; j < m; j++ {
			g.kernel.EvalBatch(g.xs, g.dim, sp.zs[j*g.dim:(j+1)*g.dim], col)
			newRow[j] = linalg.Dot(col, kn)
		}
	}

	//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
	invNoise := 1 / g.noiseVar
	if m == 0 {
		cholKmm, err := linalg.NewCholesky(linalg.NewMatrixFrom(1, 1, []float64{priorVar}))
		if err != nil {
			panic(fmt.Sprintf("gp: inducing seed factor: %v", err))
		}
		cholSig, err := linalg.NewCholesky(linalg.NewMatrixFrom(1, 1, []float64{priorVar + invNoise*newDiag}))
		if err != nil {
			panic(fmt.Sprintf("gp: inducing seed Σ factor: %v", err))
		}
		sp.cholKmm, sp.cholSig = cholKmm, cholSig
	} else {
		if err := sp.cholKmm.Append(kz, priorVar); err != nil {
			// K_mm rows are admitted only above the novelty threshold, so the
			// bordered pivot stays well clear of zero even before jitter.
			panic(fmt.Sprintf("gp: inducing factor append: %v", err))
		}
		sigRow := sp.vbuf[:m]
		for j := 0; j < m; j++ {
			sigRow[j] = kz[j] + invNoise*newRow[j]
		}
		if err := sp.cholSig.Append(sigRow, priorVar+invNoise*newDiag); err != nil {
			panic(fmt.Sprintf("gp: inducing Σ factor append: %v", err))
		}
	}

	for j := 0; j < m; j++ {
		sp.kmm[m*stride+j] = kz[j]
		sp.kmm[j*stride+m] = kz[j]
		sp.a[m*stride+j] = newRow[j]
		sp.a[j*stride+m] = newRow[j]
	}
	sp.kmm[m*stride+m] = priorVar
	sp.a[m*stride+m] = newDiag
	sp.b[m] = newB
	sp.zs = append(sp.zs, z...)
	sp.m = m + 1
	sp.qdiagValid = false
	sp.inserts++
	g.met.insertsCtr.Inc()
	sp.refreshAlpha(g.noiseVar)
}

// sparseRemove deletes basis point v. The moment sums shift exactly —
// their entries are per-basis-point and never reference v — and both
// factors are rebuilt from the retained blocks (swaps are rare enough
// that the O(m³) rebuild never shows up in per-period cost).
func (g *GP) sparseRemove(v int) {
	sp := g.sp
	m := sp.m
	stride := sp.cfg.MaxInducing

	copy(sp.zs[v*g.dim:], sp.zs[(v+1)*g.dim:])
	sp.zs = sp.zs[:(m-1)*g.dim]
	copy(sp.b[v:m-1], sp.b[v+1:m])
	for _, mat := range [][]float64{sp.kmm, sp.a} {
		for i := v; i < m-1; i++ { // shift rows up
			copy(mat[i*stride:i*stride+m], mat[(i+1)*stride:(i+1)*stride+m])
		}
		for i := 0; i < m-1; i++ { // shift columns left
			copy(mat[i*stride+v:i*stride+m-1], mat[i*stride+v+1:i*stride+m])
		}
	}
	sp.m = m - 1
	sp.qdiagValid = false
	sp.refactorAll(g.noiseVar)
}

// refactorAll rebuilds both factors from the stored moments.
func (sp *sparseState) refactorAll(noiseVar float64) {
	m := sp.m
	stride := sp.cfg.MaxInducing
	km := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		copy(km.Row(i), sp.kmm[i*stride:i*stride+m])
	}
	cholKmm, err := linalg.NewCholesky(km)
	if err != nil {
		panic(fmt.Sprintf("gp: inducing refactorization: %v", err))
	}
	sp.cholKmm = cholKmm
	sp.refactorSigma(noiseVar)
}

// refactorSigma rebuilds the Σ factor from K_mm and the moment matrix,
// resetting the rank-1 drift counter.
func (sp *sparseState) refactorSigma(noiseVar float64) {
	m := sp.m
	stride := sp.cfg.MaxInducing
	//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
	invNoise := 1 / noiseVar
	sig := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		row := sig.Row(i)
		for j := 0; j < m; j++ {
			row[j] = sp.kmm[i*stride+j] + invNoise*sp.a[i*stride+j]
		}
	}
	cholSig, err := linalg.NewCholesky(sig)
	if err != nil {
		panic(fmt.Sprintf("gp: Σ refactorization: %v", err))
	}
	sp.cholSig = cholSig
	sp.sinceRefactor = 0
}

// sparseLearn folds one observation into the moments and streams it into
// the Σ factor as the rank-1 update (k/ζ)(k/ζ)ᵀ — O(m²) per observation,
// with a periodic rebuild bounding the accumulated drift.
func (g *GP) sparseLearn(x []float64, y float64) {
	sp := g.sp
	m := sp.m
	stride := sp.cfg.MaxInducing
	k := sp.kbuf[:m]
	g.kernel.EvalBatch(sp.zs, g.dim, x, k)
	for i := 0; i < m; i++ {
		row := sp.a[i*stride : i*stride+m]
		ki := k[i]
		for j, kj := range k {
			row[j] += ki * kj
		}
	}
	for i, ki := range k {
		sp.b[i] += y * ki
	}
	sp.sumYY += y * y
	sp.sinceRefactor++
	if sp.sinceRefactor >= sparseRefactorEvery {
		sp.refactorSigma(g.noiseVar)
	} else {
		//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
		invZeta := 1 / math.Sqrt(g.noiseVar)
		u := sp.vbuf[:m]
		for i, ki := range k {
			u[i] = ki * invZeta
		}
		sp.cholSig.Rank1Update(u)
	}
	sp.refreshAlpha(g.noiseVar)
}

// refreshAlpha recomputes α = ζ⁻²·Σ⁻¹·b in O(m²). A fresh slice is
// published on every refresh because concurrent read sweeps may still hold
// the previous one (same single-writer contract as the exact engine).
func (sp *sparseState) refreshAlpha(noiseVar float64) {
	m := sp.m
	alpha := make([]float64, m)
	copy(alpha, sp.b[:m])
	sp.cholSig.SolveVec(alpha)
	//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
	invNoise := 1 / noiseVar
	for i := range alpha {
		alpha[i] *= invNoise
	}
	sp.alpha = alpha
}

// sparseLML is the DTC log marginal likelihood, assembled from streamed
// moments without any pass over the history:
//
//	log p(y) = −½ζ⁻²(Σy² − bᵀα) − ½(n·log ζ² + log det Σ − log det K_mm)
//	           − (n/2)·log 2π.
func (g *GP) sparseLML() float64 {
	sp := g.sp
	n := g.Len()
	if n == 0 {
		return 0
	}
	if sp.m == 0 {
		return math.Inf(-1)
	}
	//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
	quad := (sp.sumYY - linalg.Dot(sp.b[:sp.m], sp.alpha)) / g.noiseVar
	//edgebol:allow nanguard -- noiseVar is validated positive at construction (New)
	logdet := float64(n)*math.Log(g.noiseVar) + sp.cholSig.LogDet() - sp.cholKmm.LogDet()
	return -0.5*quad - 0.5*logdet - 0.5*float64(n)*math.Log(2*math.Pi)
}
