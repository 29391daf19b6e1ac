package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// sparseSweepTestGP builds a sparse-engine GP over ctxDims+ctrlDims
// features with n random observations.
func sparseSweepTestGP(t *testing.T, ctxDims, ctrlDims, n int, seed int64) *GP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := ctxDims + ctrlDims
	ls := make([]float64, dims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	g, err := NewSparse(mustKernel(Matern32, ls), 2e-3, SparseConfig{MaxInducing: 16})
	if err != nil {
		t.Fatal(err)
	}
	addSweepObs(t, g, n, rng)
	return g
}

// TestSweepSubsetMatchesSweep pins the acquisition's contract: SweepSubset
// over an arbitrary index list — unsorted, duplicated, tile-misaligned —
// reproduces Posterior at the features of those grid indices bitwise, for
// every worker count, on both engines.
func TestSweepSubsetMatchesSweep(t *testing.T) {
	shapes := []struct {
		ctxDims int
		counts  []int
		obs     int // observations; 0 means 37
	}{
		{3, []int{5, 4, 3, 4}, 0},    // EdgeBOL's 3+4 layout (2 evens / 2 odds)
		{3, []int{3, 4, 2, 3, 5}, 0}, // 3+5 split-inference layout (2 evens / 3 odds)
		{2, []int{4, 3, 5}, 0},
		{3, []int{5, 4, 3, 4}, 1}, // a one-row basis
	}
	for _, sparse := range []bool{false, true} {
		for _, shape := range shapes {
			name := fmt.Sprintf("sparse=%v/ctx=%d/dims=%d", sparse, shape.ctxDims, len(shape.counts))
			obs := 37
			if shape.obs > 0 {
				obs = shape.obs
				name += fmt.Sprintf("/obs=%d", obs)
			}
			t.Run(name, func(t *testing.T) {
				var g *GP
				if sparse {
					g = sparseSweepTestGP(t, shape.ctxDims, len(shape.counts), obs, 211)
				} else {
					g = sweepTestGP(t, Matern32,
						shape.ctxDims, len(shape.counts), obs, 0, 211)
				}
				levels := sweepLevels(shape.counts)
				p, err := NewSweepPlan(g, shape.ctxDims, levels)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(13))
				ctx := make([]float64, shape.ctxDims)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				size := p.GridSize()
				refMu, refSigma := posteriors(g, enumerateGrid(ctx, levels))

				subsets := [][]int32{
					{},                                    // empty subset is a no-op
					{0},                                   // single candidate
					{int32(size - 1), 0, int32(size / 2)}, // unsorted
					{3, 3, 3, int32(size - 1), int32(size - 1), 17}, // duplicates
				}
				// A random scattered subset larger than one tile, so the
				// parallel path actually shards it.
				big := make([]int32, 0, 300)
				for len(big) < cap(big) {
					big = append(big, int32(rng.Intn(size)))
				}
				subsets = append(subsets, big)

				for si, idxs := range subsets {
					for _, workers := range []int{1, 0, 2, 3, 8} {
						mu := make([]float64, len(idxs))
						sigma := make([]float64, len(idxs))
						p.SweepSubset(ctx, idxs, mu, sigma, workers)
						for j, gi := range idxs {
							if !bitsEqual(mu[j], refMu[gi]) || !bitsEqual(sigma[j], refSigma[gi]) {
								t.Fatalf("subset %d workers=%d slot %d (grid %d): subset (%x, %x), Posterior (%x, %x)",
									si, workers, j, gi, mu[j], sigma[j], refMu[gi], refSigma[gi])
							}
						}
					}
				}
			})
		}
	}
}

// TestSweepSubsetEmptyGP covers the prior-only path on both engines: with
// no observations, the subset posterior is the prior at every index.
func TestSweepSubsetEmptyGP(t *testing.T) {
	sparse, err := NewSparse(mustKernel(Matern32, []float64{1, 1, 1}), 1e-3, SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*GP{New(mustKernel(Matern32, []float64{1, 1, 1}), 1e-3, 0), sparse} {
		levels := sweepLevels([]int{3, 4})
		p, err := NewSweepPlan(g, 1, levels)
		if err != nil {
			t.Fatal(err)
		}
		idxs := []int32{5, 0, 11}
		mu := make([]float64, len(idxs))
		sigma := make([]float64, len(idxs))
		p.SweepSubset([]float64{0.4}, idxs, mu, sigma, 2)
		for j := range idxs {
			if !bitsEqual(mu[j], 0) {
				t.Fatalf("%s slot %d: prior mean %v, want 0", g.EngineName(), j, mu[j])
			}
			if !bitsEqual(sigma[j], 1) {
				t.Fatalf("%s slot %d: prior sigma %v, want 1", g.EngineName(), j, sigma[j])
			}
		}
	}
}
