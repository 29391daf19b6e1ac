package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDims matches the agent's joint feature space: 3 context + 5
// control dimensions, the layout of fillSqDist's (2, 3) branch.
const benchDims = 8

// benchGridSize matches the paper's 11⁴-point control grid.
const benchGridSize = 14641

// benchGP builds a GP with t seeded pseudo-random observations over the
// joint feature space, mimicking the agent's per-period state.
func benchGP(b *testing.B, t int) *GP {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ls := []float64{0.6, 0.6, 0.6, 1.0, 1.0, 1.2, 1.2, 1.0}
	g := New(mustKernel(Matern32, ls), 1e-3, 0)
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

// benchSparseGPs is benchGP on the inducing-point engine, basis bounded at
// m, for k objectives fed the same stream of inputs in lockstep, the way
// an agent's are: one kernel, distinct noise and targets. The first GP
// sees benchGP's stream of observations.
func benchSparseGPs(b *testing.B, t, m, k int) []*GP {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ls := []float64{0.6, 0.6, 0.6, 1.0, 1.0, 1.2, 1.2, 1.0}
	gps := make([]*GP, k)
	for j := range gps {
		g, err := NewSparse(mustKernel(Matern32, ls), 1e-3*float64(j+1), SparseConfig{MaxInducing: m})
		if err != nil {
			b.Fatal(err)
		}
		gps[j] = g
	}
	for i := 0; i < t; i++ {
		x := make([]float64, benchDims)
		for d := range x {
			x[d] = rng.Float64()
		}
		y := rng.NormFloat64()
		for j, g := range gps {
			if err := g.Add(x, y+float64(j)*x[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return gps
}

// benchExactCap is the largest history the exact-engine benchmarks run
// at: above it the O(t²)-per-candidate sweep takes minutes per iteration
// and the sparse engine is the supported configuration, so the exact
// variants skip with a logged reason instead of burning CI time.
const benchExactCap = 1000

// benchLevels is the paper's control grid as per-dimension level values:
// 4 control dimensions × 11 levels and the split dimension's single level
// 0, the 14 641-point sweep.
func benchLevels() [][]float64 {
	out := make([][]float64, 5)
	for d := range out[:4] {
		lv := make([]float64, 11)
		for i := range lv {
			lv[i] = float64(i) / 10
		}
		out[d] = lv
	}
	out[4] = []float64{0}
	return out
}

// benchSweep runs one full-grid SweepSubset over the plans of gps b.N
// times: the agent's per-period posterior sweep for as many objectives,
// with no screen.
func benchSweep(b *testing.B, workers int, gps ...*GP) {
	b.Helper()
	levels := benchLevels()
	plans := make([]*SweepPlan, len(gps))
	mu, sigma := make([][]float64, len(gps)), make([][]float64, len(gps))
	for i, g := range gps {
		plan, err := NewSweepPlan(g, 3, levels)
		if err != nil {
			b.Fatal(err)
		}
		if plan.GridSize() != benchGridSize {
			b.Fatalf("grid has %d points, want %d", plan.GridSize(), benchGridSize)
		}
		plans[i] = plan
		mu[i], sigma[i] = make([]float64, benchGridSize), make([]float64, benchGridSize)
	}
	ctx := []float64{0.4, 0.55, 0.3}
	idxs := allIndices(plans[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SweepSubset(plans, ctx, idxs, nil, mu, sigma, workers)
	}
}

// BenchmarkGridSweep measures the per-period posterior sweep over the
// full 14 641-point grid at several history sizes t, through the sweep
// plan the agent runs. Fixed seeds make runs reproducible. The
// engine=sparse variants pin the inducing-point engine's flat per-period
// cost out to t=10⁴ (m=128 basis); exact entries above benchExactCap skip.
// The plans=3 variant sweeps three lockstep sparse objectives in one call,
// the budgeted mode's layout: one column group, one Nyström solve and
// three Σ solves per candidate.
func BenchmarkGridSweep(b *testing.B) {
	for _, t := range []int{50, 200, 1000, 5000} {
		if testing.Short() && t > 200 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			if t > benchExactCap {
				b.Skipf("exact engine skipped at t=%d: O(t²) per-candidate sweep; see the engine=sparse variant", t)
			}
			benchSweep(b, 0, benchGP(b, t))
		})
	}
	for _, t := range []int{1000, 5000, 10000} {
		// t=1000 stays in short mode so the short run covers the sparse
		// engine too; the longer horizons are full-run only.
		if testing.Short() && t > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d/engine=sparse", t), func(b *testing.B) {
			benchSweep(b, 0, benchSparseGPs(b, t, 128, 1)...)
		})
	}
	b.Run("t=1000/engine=sparse/plans=3", func(b *testing.B) {
		benchSweep(b, 0, benchSparseGPs(b, 1000, 128, 3)...)
	})
}

// BenchmarkGridSweepWorkers fixes t=200 and varies the explicit worker
// count, exposing the sharding scaling on multi-core runners (results are
// bitwise identical across the variants; only wall-clock differs).
func BenchmarkGridSweepWorkers(b *testing.B) {
	g := benchGP(b, 200)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSweep(b, workers, g)
		})
	}
	// workers=auto guards the resolveWorkers policy: auto must never lose
	// meaningfully to the best explicit count on the same machine.
	b.Run("workers=auto", func(b *testing.B) {
		benchSweep(b, 0, g)
	})
}
