package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
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
		{3, []int{5, 4, 3, 4}, 0},    // 3+4 (2 evens / 2 odds)
		{3, []int{3, 4, 2, 3, 5}, 0}, // EdgeBOL's 3+5 layout (2 evens / 3 odds)
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
						sweepOne(p, ctx, idxs, mu, sigma, workers)
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
		sweepOne(p, []float64{0.4}, idxs, mu, sigma, 2)
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

// lockstepGPs builds three GPs fed the same n inputs, the way an agent's
// objectives are, with distinct targets and noise variances. shared gives
// them one kernel; otherwise each draws its own length scales.
func lockstepGPs(t *testing.T, sparse, shared bool, ctxDims, ctrlDims, n int) []*GP {
	t.Helper()
	rng := rand.New(rand.NewSource(307))
	draw := func() []float64 {
		ls := make([]float64, ctxDims+ctrlDims)
		for i := range ls {
			ls[i] = 0.3 + rng.Float64()
		}
		return ls
	}
	ls := draw()
	gps := make([]*GP, 3)
	for i := range gps {
		if !shared {
			ls = draw()
		}
		noise := 2e-3 * float64(i+1)
		if !sparse {
			gps[i] = New(mustKernel(Matern32, ls), noise, 0)
			continue
		}
		g, err := NewSparse(mustKernel(Matern32, ls), noise, SparseConfig{MaxInducing: 16})
		if err != nil {
			t.Fatal(err)
		}
		gps[i] = g
	}
	for o := 0; o < n; o++ {
		x := make([]float64, ctxDims+ctrlDims)
		for j := range x {
			x[j] = rng.Float64()
		}
		for _, g := range gps {
			if err := g.Add(x, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return gps
}

// instrumentedPlans builds one plan per GP, each with its column counter
// on reg, and returns the counters' running total.
func instrumentedPlans(t *testing.T, gps []*GP, ctxDims int, levels [][]float64, reg *telemetry.Registry) ([]*SweepPlan, func() uint64) {
	t.Helper()
	plans := make([]*SweepPlan, len(gps))
	for i, g := range gps {
		p, err := NewSweepPlan(g, ctxDims, levels)
		if err != nil {
			t.Fatal(err)
		}
		p.Instrument(reg, fmt.Sprint(i))
		plans[i] = p
	}
	return plans, func() uint64 {
		var sum uint64
		for i := range plans {
			sum += reg.Counter("edgebol_gp_sweep_columns_total", "gp", fmt.Sprint(i)).Value()
		}
		return sum
	}
}

// nanRows returns k rows of m NaNs: outputs a sweep must overwrite, or
// leave alone where it promises to.
func nanRows(k, m int) [][]float64 {
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = math.NaN()
		}
	}
	return rows
}

// TestSweepSubsetColumnGroups pins the multi-plan sweep without a screen:
// every plan's outputs equal its GP's Posterior bitwise for every worker
// count, and the sweep builds one column per candidate for each group of
// plans whose GPs share kernel, engine and basis — one group when the GPs
// run in lockstep on one kernel, one per plan when their kernels differ,
// and a group of its own for a GP whose basis has moved ahead.
func TestSweepSubsetColumnGroups(t *testing.T) {
	const ctxDims = 3
	levels := sweepLevels([]int{5, 4, 3, 4})
	ctx := []float64{0.2, 0.7, 0.4}
	for _, sparse := range []bool{false, true} {
		for _, kernels := range []string{"shared", "distinct", "diverged"} {
			t.Run(fmt.Sprintf("sparse=%v/%s", sparse, kernels), func(t *testing.T) {
				obs := 37
				if kernels == "diverged" {
					obs = 10 // below the sparse basis budget, so the next input is admitted
				}
				gps := lockstepGPs(t, sparse, kernels != "distinct", ctxDims, len(levels), obs)
				groups := map[string]int{"shared": 1, "distinct": 3, "diverged": 2}[kernels]
				if kernels == "diverged" {
					// One more input enters only the last GP's basis.
					if err := gps[2].Add([]float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, 0.1); err != nil {
						t.Fatal(err)
					}
					if gps[2].basisLen() == gps[1].basisLen() {
						t.Fatal("the extra input did not enter the basis")
					}
				}
				plans, columns := instrumentedPlans(t, gps, ctxDims, levels, telemetry.NewRegistry())
				feats := enumerateGrid(ctx, levels)
				idxs := allIndices(plans[0])
				for _, workers := range []int{1, 0, 3} {
					mu, sigma := nanRows(len(plans), len(idxs)), nanRows(len(plans), len(idxs))
					before := columns()
					if kept := SweepSubset(plans, ctx, idxs, nil, mu, sigma, workers); kept != len(idxs) {
						t.Fatalf("workers=%d: kept %d of %d without a screen", workers, kept, len(idxs))
					}
					if got, want := columns()-before, uint64(groups*len(idxs)); got != want {
						t.Fatalf("workers=%d: built %d columns, want %d (%d groups)", workers, got, want, groups)
					}
					for i, g := range gps {
						for j, f := range feats {
							refMu, refSigma := g.Posterior(f)
							if !bitsEqual(mu[i][j], refMu) || !bitsEqual(sigma[i][j], refSigma) {
								t.Fatalf("workers=%d plan %d grid %d: sweep (%x, %x), Posterior (%x, %x)",
									workers, i, j, mu[i][j], sigma[i][j], refMu, refSigma)
							}
						}
					}
				}
			})
		}
	}
}

// TestSweepSubsetScreen pins the screen's contract on both engines, with
// shared and per-plan kernels, on an empty and a trained basis, over a
// scattered index list with duplicates: the screened plans' means equal
// Posterior's at every position; at the positions Keep accepts, every
// output equals Posterior; elsewhere the other outputs are left as they
// were; the count returned is the number accepted, for every worker
// count; and only the screened groups build a column for a rejected
// candidate.
func TestSweepSubsetScreen(t *testing.T) {
	const ctxDims = 3
	levels := sweepLevels([]int{3, 4, 2, 3, 5})
	ctx := []float64{0.6, 0.1, 0.9}
	feats := enumerateGrid(ctx, levels)
	rng := rand.New(rand.NewSource(29))
	idxs := make([]int32, 500)
	for j := range idxs {
		idxs[j] = int32(rng.Intn(len(feats)))
	}
	idxs[7], idxs[8] = idxs[6], idxs[6]
	// Keep reads plans 1 and 2; the j%11 term keeps some candidates the
	// means alone would reject.
	keep := func(j int, means []float64) bool { return means[0] < means[1] || j%11 == 0 }
	screen := &Screen{Means: []int{1, 2}, Keep: keep}
	for _, sparse := range []bool{false, true} {
		for _, shared := range []bool{true, false} {
			for _, obs := range []int{0, 37} {
				t.Run(fmt.Sprintf("sparse=%v/shared=%v/obs=%d", sparse, shared, obs), func(t *testing.T) {
					gps := lockstepGPs(t, sparse, shared, ctxDims, len(levels), obs)
					plans, columns := instrumentedPlans(t, gps, ctxDims, levels, telemetry.NewRegistry())
					refMu, refSigma := nanRows(len(gps), len(feats)), nanRows(len(gps), len(feats))
					for i, g := range gps {
						refMu[i], refSigma[i] = posteriors(g, feats)
					}
					want := 0
					for j, gi := range idxs {
						if keep(j, []float64{refMu[1][gi], refMu[2][gi]}) {
							want++
						}
					}
					if obs > 0 && (want == len(idxs) || want <= len(idxs)/11+1) {
						t.Fatalf("screen keeps %d of %d: the means decide nothing", want, len(idxs))
					}
					// Shared kernels: one screened group. Per-plan kernels:
					// plans 1 and 2 are screened, plan 0 builds only kept columns.
					wantColumns := uint64(len(idxs))
					if !shared {
						wantColumns = uint64(2*len(idxs) + want)
					}
					for _, workers := range []int{1, 0, 2, 3} {
						mu, sigma := nanRows(len(plans), len(idxs)), nanRows(len(plans), len(idxs))
						before := columns()
						if kept := SweepSubset(plans, ctx, idxs, screen, mu, sigma, workers); kept != want {
							t.Fatalf("workers=%d: kept %d, want %d", workers, kept, want)
						}
						if got := columns() - before; got != wantColumns {
							t.Fatalf("workers=%d: built %d columns, want %d", workers, got, wantColumns)
						}
						for j, gi := range idxs {
							kept := keep(j, []float64{refMu[1][gi], refMu[2][gi]})
							for i := range plans {
								screened := i != 0
								if screened && !bitsEqual(mu[i][j], refMu[i][gi]) {
									t.Fatalf("workers=%d plan %d slot %d: screened mean %x, Posterior %x",
										workers, i, j, mu[i][j], refMu[i][gi])
								}
								if kept {
									if !bitsEqual(mu[i][j], refMu[i][gi]) || !bitsEqual(sigma[i][j], refSigma[i][gi]) {
										t.Fatalf("workers=%d plan %d kept slot %d: sweep (%x, %x), Posterior (%x, %x)",
											workers, i, j, mu[i][j], sigma[i][j], refMu[i][gi], refSigma[i][gi])
									}
									continue
								}
								if !math.IsNaN(sigma[i][j]) || (!screened && !math.IsNaN(mu[i][j])) {
									t.Fatalf("workers=%d plan %d rejected slot %d: wrote (%v, %v)", workers, i, j, mu[i][j], sigma[i][j])
								}
							}
						}
					}
				})
			}
		}
	}
}
