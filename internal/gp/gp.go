package gp

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// GP is a Gaussian-process regressor with zero prior mean and i.i.d.
// Gaussian observation noise of variance NoiseVar (the paper's ζ²).
//
// The regressor runs one of two engines behind the same interface:
//
//   - Exact (New, NewFromData): observations are added one at a time
//     (Add); the Cholesky factor of K_T + ζ²·I grows incrementally in
//     O(t²) per observation. An optional sliding window (MaxObservations)
//     bounds memory and per-step cost for long runs by discarding the
//     oldest observations via a factor downdate.
//   - Sparse (NewSparse): an online inducing-point DTC posterior over a
//     fixed basis budget m; Add costs O(m²) and every posterior query
//     O(m²) regardless of t, which is what makes unbounded-horizon runs
//     affordable. The exact engine remains the
//     correctness oracle — equivalence tests bound the approximation
//     error at small t. In sparse mode MaxObservations is ignored:
//     eviction exists to cap exact-engine growth, and the basis budget
//     already bounds the sparse engine's costs, so eviction is a no-op
//     by design (history stays retained for basis insertions and
//     checkpointing; it is O(t·d) memory with no per-period cost).
//
// Training inputs are stored in one flat row-major matrix so kernel rows
// (Kernel.EvalBatch) and the sweep plan's distance tables stream them
// cache-linearly.
//
// Concurrency: mutating calls (Add, RestoreFrom) must not run concurrently
// with anything else, but the read paths — Posterior,
// LogMarginalLikelihood, Snapshot — touch no shared mutable state and are
// safe to call from multiple goroutines between mutations.
//
// The zero value is not usable; construct with New or NewFromData.
type GP struct {
	kernel   Kernel
	noiseVar float64
	dim      int

	xs    []float64 // flat row-major observed inputs, Len()×dim
	ys    []float64 // observed targets
	chol  *linalg.Cholesky
	alpha []float64 // (K + ζ²I)⁻¹ y

	maxObs int

	// sp holds the inducing-point engine state; nil selects the exact
	// engine. Set only at construction (NewSparse); a GP never changes
	// engine.
	sp *sparseState

	// evictions counts sliding-window evictions for diagnostics even when
	// telemetry is disabled; mutated only under the Add path, which is
	// single-writer by the concurrency contract above.
	evictions uint64
	met       gpMetrics
}

// gpMetrics holds the GP's pre-registered telemetry handles. The zero
// value (all nil) is the disabled state: every update no-ops.
type gpMetrics struct {
	observations *telemetry.Counter
	evictionsCtr *telemetry.Counter
	sweep        *telemetry.Histogram

	// Sparse-engine series; nil (no-op) under the exact engine.
	inducing   *telemetry.Gauge
	insertsCtr *telemetry.Counter
	swapsCtr   *telemetry.Counter
}

// New returns a GP with the given kernel and observation-noise variance.
// maxObservations bounds the retained history (0 means unlimited); when the
// bound is hit the oldest half of the observations is discarded and the
// factor rebuilt, amortizing to O(t²) per step.
func New(kernel Kernel, noiseVar float64, maxObservations int) *GP {
	if kernel == nil {
		panic("gp: nil kernel")
	}
	if noiseVar <= 0 {
		panic(fmt.Sprintf("gp: noise variance %v must be positive", noiseVar))
	}
	if maxObservations < 0 {
		panic("gp: negative observation bound")
	}
	if maxObservations > 0 && maxObservations < 2 {
		panic("gp: observation bound must be at least 2")
	}
	return &GP{kernel: kernel, noiseVar: noiseVar, dim: kernel.Dim(), maxObs: maxObservations}
}

// NewFromData builds a GP on a full prior dataset at once: one Gram-matrix
// build and one O(n³) factorization instead of n incremental O(n²)
// appends. It validates like New plus per-observation like Add.
func NewFromData(kernel Kernel, noiseVar float64, maxObservations int, xs [][]float64, ys []float64) (*GP, error) {
	g := New(kernel, noiseVar, maxObservations)
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	if maxObservations > 0 && len(xs) > maxObservations {
		return nil, fmt.Errorf("gp: %d observations exceed the bound %d", len(xs), maxObservations)
	}
	if len(xs) == 0 {
		return g, nil
	}
	flat := make([]float64, 0, len(xs)*g.dim)
	for i, x := range xs {
		if len(x) != g.dim {
			return nil, fmt.Errorf("gp: input %d dimension %d does not match kernel dimension %d", i, len(x), g.dim)
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("gp: non-finite observation %v", ys[i])
		}
		flat = append(flat, x...)
	}
	chol, err := linalg.NewCholesky(gram(kernel, noiseVar, flat, len(xs)))
	if err != nil {
		return nil, err
	}
	g.xs = flat
	g.ys = append([]float64(nil), ys...)
	g.chol = chol
	g.refreshAlpha()
	return g, nil
}

// gram builds the noise-regularized kernel (Gram) matrix K + ζ²·I of the n
// flat row-major inputs. It is the single construction path shared by
// batch fitting (NewFromData, hyperparameter evidence) and the
// post-eviction factor rebuild.
func gram(k Kernel, noiseVar float64, xs []float64, n int) *linalg.Matrix {
	dim := k.Dim()
	m := linalg.NewMatrix(n, n)
	diag := k.Prior() + noiseVar
	for i := 0; i < n; i++ {
		row := m.Row(i)
		k.EvalBatch(xs, dim, xs[i*dim:(i+1)*dim], row[:i])
		for j := 0; j < i; j++ {
			m.Set(j, i, row[j])
		}
		row[i] = diag
	}
	return m
}

// Instrument registers this GP's telemetry series on reg, labeled with
// the objective name (e.g. "cost", "delay", "map"): observation and
// eviction counters plus the batched posterior-sweep latency histogram,
// labeled with the active engine so sparse and exact sweep latencies land
// in separate series. Under the sparse engine it additionally registers
// the inducing-set gauge and insert/swap counters. Call it before
// concurrent use; a nil registry leaves telemetry disabled at zero cost
// on the inference hot path.
func (g *GP) Instrument(reg *telemetry.Registry, objective string) {
	g.met = gpMetrics{
		observations: reg.Counter("edgebol_gp_observations_total", "gp", objective),
		evictionsCtr: reg.Counter("edgebol_gp_evictions_total", "gp", objective),
		sweep: reg.Histogram("edgebol_gp_sweep_seconds", telemetry.LatencyBuckets(),
			"gp", objective, "engine", g.EngineName()),
	}
	if g.sp != nil {
		g.met.inducing = reg.Gauge("edgebol_gp_inducing_points", "gp", objective)
		g.met.insertsCtr = reg.Counter("edgebol_gp_inducing_inserts_total", "gp", objective)
		g.met.swapsCtr = reg.Counter("edgebol_gp_inducing_swaps_total", "gp", objective)
		g.met.inducing.Set(float64(g.sp.m))
	}
}

// Evictions returns the cumulative number of sliding-window evictions.
func (g *GP) Evictions() uint64 { return g.evictions }

// basisGen is the generation counter of the basis a sweep plan tabulates:
// whenever it moves, existing rows were renumbered and every distance
// table must be rebuilt. Exact engine: the eviction counter (an eviction
// drops leading training rows). Sparse engine: the swap counter (a swap
// replaces an inducing row in place; inserts only append and are handled
// by row-count growth).
func (g *GP) basisGen() uint64 {
	if g.sp != nil {
		return g.sp.swaps
	}
	return g.evictions
}

// Kernel returns the kernel in use.
func (g *GP) Kernel() Kernel { return g.kernel }

// NoiseVar returns the observation-noise variance ζ².
func (g *GP) NoiseVar() float64 { return g.noiseVar }

// Len returns the number of retained observations.
func (g *GP) Len() int { return len(g.ys) }

// Training returns copies of the GP's retained training inputs (flat
// row-major, Dim columns) and targets, oldest first. max > 0 caps the
// result to the most recent max rows; max <= 0 returns everything. It is
// the export half of cross-model observation pooling (see core's
// Agent.History): unlike Snapshot it carries no factors, so it stays
// O(n·d) however long the run.
func (g *GP) Training(max int) (xs []float64, ys []float64) {
	n := len(g.ys)
	if max > 0 && max < n {
		n = max
	}
	start := len(g.ys) - n
	xs = append([]float64(nil), g.xs[start*g.dim:]...)
	ys = append([]float64(nil), g.ys[start:]...)
	return xs, ys
}

// TrainingRow returns a read-only view of retained training input i
// (oldest first, i in [0, Len())) — no copy, valid until the next
// mutating call. It is the allocation-free accessor the adaptive
// acquisition engine uses to re-derive the observed grid anchors each
// period; both engines retain the full input history (the sparse engine
// keeps it for basis insertions and checkpointing).
func (g *GP) TrainingRow(i int) []float64 {
	return g.xs[i*g.dim : (i+1)*g.dim]
}

// basisLen returns the number of points a posterior query solves against:
// the inducing-set size under the sparse engine, the training size under
// the exact one. It is the n of every read path's O(n²) solve.
func (g *GP) basisLen() int {
	if g.sp != nil {
		return g.sp.m
	}
	return len(g.ys)
}

// basisXs returns the flat row-major inputs the cross-covariance is
// evaluated against — inducing inputs (sparse) or training inputs (exact).
func (g *GP) basisXs() []float64 {
	if g.sp != nil {
		return g.sp.zs
	}
	return g.xs
}

// Add incorporates the observation (x, y). The input is copied.
func (g *GP) Add(x []float64, y float64) error {
	if len(x) != g.dim {
		return fmt.Errorf("gp: input dimension %d does not match kernel dimension %d", len(x), g.dim)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("gp: non-finite observation %v", y)
	}
	if g.sp != nil {
		return g.addSparse(x, y)
	}
	if g.maxObs > 0 && g.Len() >= g.maxObs {
		g.evict(g.maxObs / 2)
	}
	n := g.Len()
	diag := g.kernel.Prior() + g.noiseVar
	if n == 0 {
		chol, err := linalg.NewCholesky(linalg.NewMatrixFrom(1, 1, []float64{diag}))
		if err != nil {
			return err
		}
		g.chol = chol
	} else {
		b := make([]float64, n)
		g.kernel.EvalBatch(g.xs, g.dim, x, b)
		if err := g.chol.Append(b, diag); err != nil {
			return err
		}
	}
	g.xs = append(g.xs, x...)
	g.ys = append(g.ys, y)
	g.refreshAlpha()
	g.met.observations.Inc()
	return nil
}

// evict drops the oldest dropCount observations, shrinking the factor
// with a downdate (linalg.Cholesky.DropLeading) instead of rebuilding the
// Gram matrix: only the dropped rows changed, and the retained block plus
// the dropped columns determine the shrunken factor without a single
// kernel re-evaluation — O(k·(t−k)²) arithmetic against the rebuild's
// O(t²·d) kernel evaluations + O(t³) refactorization. The downdated
// factor agrees with a fresh rebuild to rounding error, not bitwise (the
// equivalence tests pin the tolerance). Exact engine only: the sparse
// engine never evicts (see the type comment).
func (g *GP) evict(dropCount int) {
	g.xs = append([]float64(nil), g.xs[dropCount*g.dim:]...)
	g.ys = append([]float64(nil), g.ys[dropCount:]...)
	g.chol.DropLeading(dropCount)
	g.evictions++
	g.met.evictionsCtr.Inc()
}

func (g *GP) refreshAlpha() {
	g.alpha = append(g.alpha[:0], g.ys...)
	g.chol.SolveVec(g.alpha)
}

// Posterior returns the posterior mean and standard deviation at x
// (paper eq. 3–4). With no observations it returns the prior (0, √k(x,x)).
// It is the reference the grid sweep is tested against:
// SweepPlan.SweepSubset reproduces it bit for bit on both engines.
func (g *GP) Posterior(x []float64) (mu, sigma float64) {
	if len(x) != g.dim {
		panic(fmt.Sprintf("gp: input dimension %d does not match kernel dimension %d", len(x), g.dim))
	}
	prior := g.kernel.Prior()
	n := g.basisLen()
	if n == 0 {
		//edgebol:allow nanguard -- prior variance is positive by the Kernel contract (Prior is k(x,x) > 0)
		return 0, math.Sqrt(prior)
	}
	k := make([]float64, n)
	g.kernel.EvalBatch(g.basisXs(), g.dim, x, k)
	if g.sp != nil {
		// DTC predictive: μ = kᵀα, σ² = prior − ‖L_mm⁻¹k‖² + ‖L_Σ⁻¹k‖².
		sp := g.sp
		mu = linalg.Dot(k, sp.alpha)
		kq := append([]float64(nil), k...)
		sp.cholKmm.ForwardSolveBatch([][]float64{kq})
		sp.cholSig.ForwardSolveBatch([][]float64{k})
		v := prior - linalg.Dot(kq, kq) + linalg.Dot(k, k)
		if v < 0 {
			v = 0
		}
		return mu, math.Sqrt(v)
	}
	mu = linalg.Dot(k, g.alpha)
	// v = L⁻¹ k; var = k(x,x) − ‖v‖².
	g.chol.ForwardSolveBatch([][]float64{k})
	v := prior - linalg.Dot(k, k)
	if v < 0 {
		v = 0
	}
	return mu, math.Sqrt(v)
}

// sweepTile is the number of candidates a posterior worker advances
// together; it matches linalg.PanelWidth so full tiles hit the fused
// interleaved-panel solve and shard boundaries stay tile-aligned.
const sweepTile = linalg.PanelWidth

// autoWorkPairs is the number of training-point × candidate pairs that
// justifies one worker when the caller requests automatic parallelism.
// One worker sweeps ~10⁸ pairs/s on commodity cores, so the threshold
// keeps sub-millisecond sweeps serial (goroutine fan-out would dominate)
// while the full 11⁴-point grid against a mature training window still
// fans out to every core.
const autoWorkPairs = 1 << 17

// ResolveWorkers maps a requested worker count to the effective degree of
// parallelism of a sweep of `candidates` posteriors against `trainLen`
// observations. Explicit requests (> 0) are honored; requested <= 0 scales
// the count with the total work n×m — tiny sweeps run serially instead of
// paying fan-out for sub-millisecond work, large ones use every core.
// Either way the count is capped by the number of tile-aligned shards.
// The resolution affects scheduling only, never results.
func ResolveWorkers(trainLen, candidates, requested int) int {
	if requested <= 0 {
		w := int(int64(trainLen) * int64(candidates) / autoWorkPairs)
		if w < 1 {
			w = 1
		}
		if p := runtime.GOMAXPROCS(0); w > p {
			w = p
		}
		requested = w
	}
	if maxShards := (candidates + sweepTile - 1) / sweepTile; requested > maxShards {
		requested = maxShards
	}
	return requested
}

// LogMarginalLikelihood returns the log evidence of the retained
// observations under the current kernel and noise:
//
//	log p(y|X) = −½ yᵀα − ½ log det(K+ζ²I) − (n/2) log 2π.
//
// Under the sparse engine it returns the DTC evidence assembled from the
// streamed moments (see sparseLML) — no history pass either way.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.sp != nil {
		return g.sparseLML()
	}
	n := g.Len()
	if n == 0 {
		return 0
	}
	return -0.5*linalg.Dot(g.ys, g.alpha) - 0.5*g.chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
}
