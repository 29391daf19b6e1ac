package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDims matches the agent's joint feature space (3 context + 4 control).
const benchDims = 7

// benchGridSize matches the paper's 11⁴-point control grid.
const benchGridSize = 14641

// benchGP builds a GP with t seeded pseudo-random observations over the
// joint feature space, mimicking the agent's per-period state.
func benchGP(b *testing.B, t int) *GP {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ls := []float64{0.6, 0.6, 0.6, 1.0, 1.0, 1.2, 1.2}
	g := New(NewMatern32(ls), 1e-3, 0)
	for i := 0; i < t; i++ {
		x := make([]float64, benchDims)
		for d := range x {
			x[d] = rng.Float64()
		}
		if err := g.Add(x, rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// benchSparseGP is benchGP on the inducing-point engine: same stream of
// observations, basis bounded at m.
func benchSparseGP(b *testing.B, t, m int) *GP {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ls := []float64{0.6, 0.6, 0.6, 1.0, 1.0, 1.2, 1.2}
	g, err := NewSparse(NewMatern32(ls), 1e-3, SparseConfig{MaxInducing: m})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < t; i++ {
		x := make([]float64, benchDims)
		for d := range x {
			x[d] = rng.Float64()
		}
		if err := g.Add(x, rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// benchExactCap is the largest history the exact-engine benchmarks run
// at: above it the O(t²)-per-candidate sweep takes minutes per iteration
// and the sparse engine is the supported configuration, so the exact
// variants skip with a logged reason instead of burning CI time.
const benchExactCap = 1000

// benchLevels is the paper's 11-level control grid as per-dimension level
// values: 4 control dimensions × 11 levels = the 14 641-point sweep.
func benchLevels() [][]float64 {
	out := make([][]float64, 4)
	for d := range out {
		lv := make([]float64, 11)
		for i := range lv {
			lv[i] = float64(i) / 10
		}
		out[d] = lv
	}
	return out
}

// benchSweep runs the full-grid SweepSubset of g's plan b.N times, the
// agent's per-period posterior sweep for one objective.
func benchSweep(b *testing.B, g *GP, workers int) {
	b.Helper()
	levels := benchLevels()
	plan, err := NewSweepPlan(g, 3, levels)
	if err != nil {
		b.Fatal(err)
	}
	if plan.GridSize() != benchGridSize {
		b.Fatalf("grid has %d points, want %d", plan.GridSize(), benchGridSize)
	}
	ctx := []float64{0.4, 0.55, 0.3}
	idxs := allIndices(plan)
	mu := make([]float64, len(idxs))
	sigma := make([]float64, len(idxs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.SweepSubset(ctx, idxs, mu, sigma, workers)
	}
}

// BenchmarkGridSweep measures the per-period posterior sweep over the
// full 14 641-point grid at several history sizes t, through the sweep
// plan the agent runs. Fixed seeds make runs reproducible. The
// engine=sparse variants pin the inducing-point engine's flat per-period
// cost out to t=10⁴ (m=128 basis); exact entries above benchExactCap skip.
func BenchmarkGridSweep(b *testing.B) {
	for _, t := range []int{50, 200, 1000, 5000} {
		if testing.Short() && t > 200 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			if t > benchExactCap {
				b.Skipf("exact engine skipped at t=%d: O(t²) per-candidate sweep; see the engine=sparse variant", t)
			}
			benchSweep(b, benchGP(b, t), 0)
		})
	}
	for _, t := range []int{1000, 5000, 10000} {
		// t=1000 stays in short mode so the short run covers the sparse
		// engine too; the longer horizons are full-run only.
		if testing.Short() && t > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d/engine=sparse", t), func(b *testing.B) {
			benchSweep(b, benchSparseGP(b, t, 128), 0)
		})
	}
}

// BenchmarkGridSweepWorkers fixes t=200 and varies the explicit worker
// count, exposing the sharding scaling on multi-core runners (results are
// bitwise identical across the variants; only wall-clock differs).
func BenchmarkGridSweepWorkers(b *testing.B) {
	g := benchGP(b, 200)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSweep(b, g, workers)
		})
	}
	// workers=auto guards the ResolveWorkers policy: auto must never lose
	// meaningfully to the best explicit count on the same machine.
	b.Run("workers=auto", func(b *testing.B) {
		benchSweep(b, g, 0)
	})
}
