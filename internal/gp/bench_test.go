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

// benchCandidates enumerates a deterministic pseudo-grid of candidate
// feature vectors the size of the paper's control grid.
func benchCandidates(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	cands := make([][]float64, n)
	for i := range cands {
		c := make([]float64, benchDims)
		for d := range c {
			c[d] = rng.Float64()
		}
		cands[i] = c
	}
	return cands
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

// BenchmarkPosteriorBatch measures the per-period posterior sweep over the
// full 14 641-point grid at several history sizes t — the dominant
// wall-clock of every EdgeBOL experiment. Fixed seeds make runs
// reproducible; `make bench` records the results in BENCH_gp.json. The
// engine=sparse variants pin the inducing-point engine's flat per-period
// cost out to t=10⁴ (m=128 basis); exact entries above benchExactCap skip.
func BenchmarkPosteriorBatch(b *testing.B) {
	cands := benchCandidates(benchGridSize)
	mu := make([]float64, len(cands))
	sigma := make([]float64, len(cands))
	for _, t := range []int{50, 200, 1000, 5000} {
		if testing.Short() && t > 200 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			if t > benchExactCap {
				b.Skipf("exact engine skipped at t=%d: O(t²) per-candidate sweep; see the engine=sparse variant", t)
			}
			g := benchGP(b, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PosteriorBatch(cands, mu, sigma, BatchOptions{})
			}
		})
	}
	for _, t := range []int{1000, 5000, 10000} {
		// t=1000 stays in short mode so bench-check gates the sparse
		// engine too; the longer horizons are full-run only.
		if testing.Short() && t > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d/engine=sparse", t), func(b *testing.B) {
			g := benchSparseGP(b, t, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PosteriorBatch(cands, mu, sigma, BatchOptions{})
			}
		})
	}
}

// BenchmarkPosteriorBatchWorkers fixes t=200 and varies the explicit worker
// count, exposing the sharding scaling on multi-core runners (results are
// bitwise identical across the variants; only wall-clock differs).
func BenchmarkPosteriorBatchWorkers(b *testing.B) {
	g := benchGP(b, 200)
	cands := benchCandidates(benchGridSize)
	mu := make([]float64, len(cands))
	sigma := make([]float64, len(cands))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.PosteriorBatch(cands, mu, sigma, BatchOptions{Workers: workers})
			}
		})
	}
	// workers=auto guards the ResolveWorkers policy: auto must never lose
	// meaningfully to the best explicit count on the same machine.
	b.Run("workers=auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.PosteriorBatch(cands, mu, sigma, BatchOptions{Workers: 0})
		}
	})
}

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

// BenchmarkGridSweep compares the generic posterior path against the
// grid-structured SweepPlan on the same grid, same GP, same context — the
// tentpole speedup. The two engines produce bitwise-identical posteriors;
// benchjson pairs the engine=plan entries with their engine=generic
// counterparts to print the speedup column.
func BenchmarkGridSweep(b *testing.B) {
	levels := benchLevels()
	ctx := []float64{0.4, 0.55, 0.3}
	for _, t := range []int{50, 200, 1000} {
		if testing.Short() && t > 200 {
			continue
		}
		g := benchGP(b, t)
		feats := enumerateGrid(ctx, levels)
		if len(feats) != benchGridSize {
			b.Fatalf("grid enumerated to %d points, want %d", len(feats), benchGridSize)
		}
		mu := make([]float64, len(feats))
		sigma := make([]float64, len(feats))
		b.Run(fmt.Sprintf("t=%d/engine=generic", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.PosteriorBatch(feats, mu, sigma, BatchOptions{Workers: 0})
			}
		})
		plan, err := NewSweepPlan(g, 3, levels)
		if err != nil {
			b.Fatal(err)
		}
		idxs := allIndices(plan)
		b.Run(fmt.Sprintf("t=%d/engine=plan", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.SweepSubset(ctx, idxs, mu, sigma, 0)
			}
		})
	}
}
