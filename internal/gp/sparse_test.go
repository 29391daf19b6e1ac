package gp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// latticePoints returns an n×n lattice in 2-D with the given spacing —
// deterministic, well-separated inputs for which every point clears the
// sparse engine's novelty gate and the DTC posterior coincides with the
// exact one.
func latticePoints(n int, spacing float64) ([][]float64, []float64) {
	xs := make([][]float64, 0, n*n)
	ys := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := []float64{float64(i) * spacing, float64(j) * spacing}
			xs = append(xs, x)
			ys = append(ys, math.Sin(2*x[0])+0.5*math.Cos(3*x[1]))
		}
	}
	return xs, ys
}

// sparsePair trains an exact GP and a sparse GP on the same stream.
func sparsePair(t *testing.T, cfg SparseConfig, xs [][]float64, ys []float64) (*GP, *GP) {
	t.Helper()
	ls := []float64{0.8, 1.2}
	exact := New(mustKernel(Matern32, ls), 1e-2, 0)
	sparse, err := NewSparse(mustKernel(Matern32, ls), 1e-2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if err := exact.Add(x, ys[i]); err != nil {
			t.Fatal(err)
		}
		if err := sparse.Add(x, ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return exact, sparse
}

func TestSparseConfigValidate(t *testing.T) {
	if _, err := NewSparse(mustKernel(Matern32, []float64{1}), 1e-2, SparseConfig{MaxInducing: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := NewSparse(mustKernel(Matern32, []float64{1}), 1e-2, SparseConfig{InsertTol: -1}); err == nil {
		t.Fatal("negative insert tolerance accepted")
	}
	if _, err := NewSparse(mustKernel(Matern32, []float64{1}), 1e-2, SparseConfig{SwapMargin: -1}); err == nil {
		t.Fatal("negative swap margin accepted")
	}
	g, err := NewSparse(mustKernel(Matern32, []float64{1, 1}), 1e-2, SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSparse() || g.EngineName() != "sparse" {
		t.Fatal("NewSparse did not produce a sparse engine")
	}
	cfg := g.SparseConfigOf()
	if cfg.MaxInducing != 128 || cfg.InsertTol != 1e-3 || cfg.SwapMargin != 4 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if New(mustKernel(Matern32, []float64{1, 1}), 1e-2, 0).EngineName() != "exact" {
		t.Fatal("exact GP should report engine \"exact\"")
	}
}

// TestSparseMatchesExactAtFullBasis pins the approximation floor: with
// every training point admitted to the inducing basis the DTC posterior
// is mathematically the exact posterior, so mean, σ, and evidence must
// agree to rounding across the whole input range.
func TestSparseMatchesExactAtFullBasis(t *testing.T) {
	xs, ys := latticePoints(6, 0.45)
	cfg := SparseConfig{MaxInducing: 64, InsertTol: 1e-9}
	exact, sparse := sparsePair(t, cfg, xs, ys)
	if sparse.InducingLen() != len(xs) {
		t.Fatalf("inducing basis %d, want all %d points", sparse.InducingLen(), len(xs))
	}
	const tol = 1e-8
	for _, c := range engineCandidates(60) {
		me, se := exact.Posterior(c)
		ms, ss := sparse.Posterior(c)
		if math.Abs(me-ms) > tol || math.Abs(se-ss) > tol {
			t.Fatalf("posterior at %v: exact (%v,%v) vs sparse (%v,%v)", c, me, se, ms, ss)
		}
	}
	if le, lsml := exact.LogMarginalLikelihood(), sparse.LogMarginalLikelihood(); math.Abs(le-lsml) > 1e-6 {
		t.Fatalf("evidence: exact %v vs sparse %v", le, lsml)
	}
}

// TestSparseApproximationBounded is the compressed regime: far more
// observations than basis slots. The DTC posterior cannot match the exact
// one bitwise, but its error must stay within the bounds the engine is
// sold on — small mean deltas on the training range and a variance that
// never leaves [0, prior].
func TestSparseApproximationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
		xs = append(xs, x)
		ys = append(ys, math.Sin(2*x[0])+0.5*math.Cos(3*x[1])+0.05*rng.NormFloat64())
	}
	exact, sparse := sparsePair(t, SparseConfig{MaxInducing: 64}, xs, ys)
	if sparse.InducingLen() > 64 {
		t.Fatalf("inducing basis %d exceeds budget", sparse.InducingLen())
	}
	if sparse.Len() != 600 {
		t.Fatalf("retained history %d, want 600", sparse.Len())
	}
	var maxMu, maxSig, rms float64
	cands := engineCandidates(200)
	for _, c := range cands {
		me, se := exact.Posterior(c)
		ms, ss := sparse.Posterior(c)
		dm, dsg := math.Abs(me-ms), math.Abs(se-ss)
		maxMu = math.Max(maxMu, dm)
		maxSig = math.Max(maxSig, dsg)
		rms += dm * dm
		if ss < 0 || ss > 1+1e-12 {
			t.Fatalf("sparse σ %v outside [0, prior] at %v", ss, c)
		}
	}
	rms = math.Sqrt(rms / float64(len(cands)))
	// Bounds hold with an order of magnitude of slack on this seed; a
	// regression in the moment accumulation or the streaming factor
	// updates blows through them immediately.
	if maxMu > 0.15 || rms > 0.05 || maxSig > 0.25 {
		t.Fatalf("approximation drifted: max|Δμ|=%v rms=%v max|Δσ|=%v", maxMu, rms, maxSig)
	}
}

// TestSparseStreamingMatchesRefactor pins the rank-1 streaming update
// against periodic refactorization: the engine rebuilds its Σ factor
// every sparseRefactorEvery adds, and the posterior must not jump when
// it does — streamed and freshly factorized states agree to rounding.
func TestSparseStreamingMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, SparseConfig{MaxInducing: 32})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, 0.7}
	for i := 0; i < sparseRefactorEvery+8; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Add(x, math.Sin(3*x[0])); err != nil {
			t.Fatal(err)
		}
		if i == sparseRefactorEvery-2 {
			// Straddle the refactor boundary: posterior just before …
			mBefore, sBefore := g.Posterior(probe)
			if math.IsNaN(mBefore) || math.IsNaN(sBefore) {
				t.Fatal("NaN posterior before refactor")
			}
		}
	}
	// … and after must be consistent with a from-scratch refactorization.
	mStream, sStream := g.Posterior(probe)
	g.sp.refactorAll(g.noiseVar)
	g.sp.refreshAlpha(g.noiseVar)
	mFresh, sFresh := g.Posterior(probe)
	if math.Abs(mStream-mFresh) > 1e-8 || math.Abs(sStream-sFresh) > 1e-8 {
		t.Fatalf("streamed factor drifted: (%v,%v) vs refactored (%v,%v)", mStream, sStream, mFresh, sFresh)
	}
}

// TestSparseSwapEvictsRedundantBasis drives the at-budget swap path with
// a deterministic construction: a tight cluster fills the budget (high
// redundancy, large diag(K_mm⁻¹)), then a far-away novel point must evict
// a cluster member rather than be dropped.
func TestSparseSwapEvictsRedundantBasis(t *testing.T) {
	cfg := SparseConfig{MaxInducing: 4, InsertTol: 1e-9}
	g, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		x := []float64{0.5 + 0.02*float64(i), 0.5}
		if err := g.Add(x, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	if g.InducingLen() != 4 || g.InducingInserts() != 4 {
		t.Fatalf("basis %d after %d inserts", g.InducingLen(), g.InducingInserts())
	}
	if err := g.Add([]float64{4, 4}, -0.2); err != nil {
		t.Fatal(err)
	}
	if g.InducingSwaps() != 1 {
		t.Fatalf("swaps = %d, want 1", g.InducingSwaps())
	}
	if g.InducingLen() != 4 {
		t.Fatalf("basis %d after swap, want 4", g.InducingLen())
	}
	// The far point must now be represented: posterior mean near its
	// target, σ well below prior.
	m, s := g.Posterior([]float64{4, 4})
	if math.Abs(m-(-0.2)) > 0.1 || s > 0.5 {
		t.Fatalf("swapped-in point not learned: μ=%v σ=%v", m, s)
	}
}

// TestSparseEvictionNoOp: the sparse engine has no sliding window —
// history retention is unbounded and cheap, the basis budget is what
// bounds cost. A sparse GP never evicts and keeps its full history.
func TestSparseEvictionNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, SparseConfig{MaxInducing: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := g.Add([]float64{rng.Float64(), rng.Float64()}, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if g.Evictions() != 0 {
		t.Fatalf("sparse engine evicted %d times", g.Evictions())
	}
	if g.Len() != n {
		t.Fatalf("history %d, want %d", g.Len(), n)
	}
	if g.InducingLen() > 16 {
		t.Fatalf("basis %d exceeds budget 16", g.InducingLen())
	}
}

// TestSparseSweepPlanMatchesGeneric extends the plan's bitwise contract
// to the sparse engine: the plan sweeps over the inducing basis and must
// reproduce Posterior exactly, across growth (basis inserts append plan
// rows) and worker counts.
func TestSparseSweepPlanMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	dims := 2 + 2
	ls := make([]float64, dims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	g, err := NewSparse(mustKernel(Matern32, ls), 2e-3, SparseConfig{MaxInducing: 32})
	if err != nil {
		t.Fatal(err)
	}
	addSweepObs(t, g, 60, rng)
	levels := sweepLevels([]int{4, 5})
	p, err := NewSweepPlan(g, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []float64{rng.Float64(), rng.Float64()}
	requireSweepMatches(t, g, p, ctx, levels)

	// More observations: inserts append basis rows, the plan follows.
	addSweepObs(t, g, 40, rng)
	ctx = []float64{rng.Float64(), rng.Float64()}
	requireSweepMatches(t, g, p, ctx, levels)
}

// TestSparseSweepPlanRebuildOnSwap mirrors the eviction-driven rebuild
// test of the exact engine: a basis swap renumbers the inducing rows, and
// the plan must rebuild its tables rather than sweep stale ones.
func TestSparseSweepPlanRebuildOnSwap(t *testing.T) {
	cfg := SparseConfig{MaxInducing: 4, InsertTol: 1e-9}
	g, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2, 0.9, 1.1}), 1e-2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		x := []float64{0.5, 0.5, 0.4 + 0.02*float64(i), 0.6}
		if err := g.Add(x, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	levels := sweepLevels([]int{3, 4})
	p, err := NewSweepPlan(g, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	requireSweepMatches(t, g, p, []float64{0.5, 0.5}, levels)

	before := g.InducingSwaps()
	if err := g.Add([]float64{4, 4, 4, 4}, -0.2); err != nil {
		t.Fatal(err)
	}
	if g.InducingSwaps() == before {
		t.Fatal("expected a basis swap")
	}
	requireSweepMatches(t, g, p, []float64{0.5, 0.5}, levels)
}

// TestSparseSnapshotRestoreBitwise: serialize, restore into a fresh
// sparse GP, and verify the posterior — and every subsequent update — is
// bitwise identical, including across a swap-bearing history.
func TestSparseSnapshotRestoreBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := SparseConfig{MaxInducing: 16}
	src, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if err := src.Add([]float64{rng.Float64() * 2, rng.Float64() * 2}, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	snap := src.Snapshot()
	if snap.Engine != "sparse" {
		t.Fatalf("snapshot engine %q", snap.Engine)
	}
	dst, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreFrom(snap); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if dst.Len() != src.Len() || dst.InducingLen() != src.InducingLen() ||
		dst.InducingInserts() != src.InducingInserts() || dst.InducingSwaps() != src.InducingSwaps() {
		t.Fatalf("restored counters diverge: len %d/%d m %d/%d inserts %d/%d swaps %d/%d",
			dst.Len(), src.Len(), dst.InducingLen(), src.InducingLen(),
			dst.InducingInserts(), src.InducingInserts(), dst.InducingSwaps(), src.InducingSwaps())
	}
	check := func(stage string) {
		t.Helper()
		for _, c := range engineCandidates(40) {
			m1, s1 := src.Posterior(c)
			m2, s2 := dst.Posterior(c)
			if !bitsEqual(m1, m2) || !bitsEqual(s1, s2) {
				t.Fatalf("%s: posterior at %v diverged: (%v,%v) vs (%v,%v)", stage, c, m1, s1, m2, s2)
			}
		}
		if l1, l2 := src.LogMarginalLikelihood(), dst.LogMarginalLikelihood(); !bitsEqual(l1, l2) {
			t.Fatalf("%s: evidence diverged: %v vs %v", stage, l1, l2)
		}
	}
	check("after restore")
	// Keep learning on both sides: the streaming updates must stay in
	// lockstep (same factors, same admission decisions).
	for i := 0; i < 30; i++ {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2}
		y := rng.NormFloat64()
		if err := src.Add(x, y); err != nil {
			t.Fatal(err)
		}
		if err := dst.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	check("after continued learning")
}

// TestSparseRestoreRejectsMismatches covers the cross-engine and
// cross-configuration rejection paths.
func TestSparseRestoreRejectsMismatches(t *testing.T) {
	exact := trainedGP(t, 0, 20)
	sparse, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, SparseConfig{MaxInducing: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if err := sparse.Add([]float64{rng.Float64(), rng.Float64()}, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	// Exact state into a sparse GP and vice versa.
	if err := sparse.RestoreFrom(exact.Snapshot()); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("exact→sparse restore: %v", err)
	}
	if err := exact.RestoreFrom(sparse.Snapshot()); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("sparse→exact restore: %v", err)
	}
	// Same engine, different basis budget.
	other, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, SparseConfig{MaxInducing: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreFrom(sparse.Snapshot()); err == nil {
		t.Fatal("restore across differing inducing budgets should fail")
	}
}

// TestSparseEmptyAndPriorBehaviour: before any observation the sparse
// engine must report the prior exactly, like the exact engine.
func TestSparseEmptyAndPriorBehaviour(t *testing.T) {
	g, err := NewSparse(mustKernel(Matern32, []float64{0.8, 1.2}), 1e-2, SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, s := g.Posterior([]float64{0.3, 0.4})
	if m != 0 || s != 1 {
		t.Fatalf("prior posterior (%v, %v), want (0, 1)", m, s)
	}
	if lml := g.LogMarginalLikelihood(); lml != 0 {
		t.Fatalf("empty evidence %v, want 0", lml)
	}
}
