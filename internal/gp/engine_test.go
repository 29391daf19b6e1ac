package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// engineGP builds a seeded 2-D test GP with n observations and the given
// sliding-window bound.
func engineGP(t *testing.T, n, window int) *GP {
	t.Helper()
	g := New(NewMatern32([]float64{0.4, 0.8}), 1e-3, window)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := g.Add(x, math.Sin(3*x[0])+0.5*x[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func engineCandidates(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
	}
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestConcurrentPosteriorReads exercises the read paths from many
// goroutines at once — the data-race check (run under -race in CI) that
// sweeps and single queries hold no shared mutable state in the GP, and a
// correctness check that concurrent callers see the same answers as a
// serial one. Each sweeping goroutine owns its plan: a plan's tables are
// per-plan state, the GP underneath is shared.
func TestConcurrentPosteriorReads(t *testing.T) {
	g := engineGP(t, 30, 0)
	levels := sweepLevels([]int{8, 8})
	feats := enumerateGrid(nil, levels)
	refMu, refSigma := posteriors(g, feats)

	const goroutines = 8
	plans := make([]*SweepPlan, goroutines)
	for w := 0; w < goroutines; w += 2 {
		p, err := NewSweepPlan(g, 0, levels)
		if err != nil {
			t.Fatal(err)
		}
		plans[w] = p
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if p := plans[w]; p != nil {
				mu := make([]float64, len(feats))
				sigma := make([]float64, len(feats))
				p.SweepSubset(nil, allIndices(p), mu, sigma, 1+w%3)
				for i := range feats {
					if !bitsEqual(mu[i], refMu[i]) || !bitsEqual(sigma[i], refSigma[i]) {
						errs <- "concurrent sweep diverged from serial reference"
						return
					}
				}
			} else {
				for i, c := range feats {
					mu, sigma := g.Posterior(c)
					if !bitsEqual(mu, refMu[i]) || !bitsEqual(sigma, refSigma[i]) {
						errs <- "concurrent single read diverged from serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestEvictionRebuildMatchesBatchFit verifies that the post-eviction
// factor downdate (Cholesky.DropLeading) agrees with a from-scratch batch
// factorization (NewFromData) of the survivors. The downdate reaches the
// survivors' factor by rotations instead of refactorizing their Gram
// matrix, so agreement is to rounding tolerance — a few ulps — rather
// than bitwise; a real defect in the downdate shows up orders of
// magnitude above the 1e-12 gate.
func TestEvictionRebuildMatchesBatchFit(t *testing.T) {
	const window = 8
	w := New(NewMatern32([]float64{0.4, 0.8}), 1e-3, window)
	rng := rand.New(rand.NewSource(42))
	var xs [][]float64
	var ys []float64
	for i := 0; i < window+1; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := math.Sin(3*x[0]) + 0.5*x[1]
		xs = append(xs, x)
		ys = append(ys, y)
		if err := w.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	// The final Add hit the bound: the oldest half was dropped and the
	// factor rebuilt on the survivors before the new point was appended.
	if want := window/2 + 1; w.Len() != want {
		t.Fatalf("retained %d observations, want %d", w.Len(), want)
	}
	fresh, err := NewFromData(w.Kernel(), w.NoiseVar(), 0, xs[window/2:window], ys[window/2:window])
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Add(xs[window], ys[window]); err != nil {
		t.Fatal(err)
	}
	const tol = 1e-12
	if lw, lf := w.LogMarginalLikelihood(), fresh.LogMarginalLikelihood(); math.Abs(lw-lf) > tol {
		t.Fatalf("evidence diverges: windowed %v vs batch %v", lw, lf)
	}
	for _, c := range engineCandidates(25) {
		mw, sw := w.Posterior(c)
		mf, sf := fresh.Posterior(c)
		if math.Abs(mw-mf) > tol || math.Abs(sw-sf) > tol {
			t.Fatalf("posteriors diverge at %v: windowed (%v,%v) vs batch (%v,%v)", c, mw, sw, mf, sf)
		}
	}
}

// TestEvalBatchAgreesWithEval checks the bulk kernel path against the
// scalar one for every kernel family, including a padded-stride matrix.
// The batch path multiplies by reciprocal length scales where Eval
// divides, so agreement is to rounding tolerance, not bitwise.
func TestEvalBatchAgreesWithEval(t *testing.T) {
	ls := []float64{0.4, 0.8, 1.3}
	kernels := map[string]Kernel{
		"matern32": NewMatern32(ls),
		"matern52": NewMatern52(ls),
		"rbf":      NewRBF(ls),
	}
	rng := rand.New(rand.NewSource(9))
	const rows = 37
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			for _, stride := range []int{3, 5} {
				xs := make([]float64, rows*stride)
				for i := range xs {
					xs[i] = rng.Float64() * 2
				}
				z := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				out := make([]float64, rows)
				k.EvalBatch(xs, stride, z, out)
				for i := 0; i < rows; i++ {
					want := k.Eval(xs[i*stride:i*stride+3], z)
					if math.Abs(out[i]-want) > 1e-12 {
						t.Fatalf("stride %d row %d: EvalBatch %v vs Eval %v", stride, i, out[i], want)
					}
				}
			}
		})
	}
}

func TestEvalBatchValidation(t *testing.T) {
	k := NewMatern32([]float64{0.5, 0.5})
	expectPanic := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
	expectPanic("wrong query dimension", func() {
		k.EvalBatch(make([]float64, 8), 2, []float64{0}, make([]float64, 4))
	})
	expectPanic("stride below dimension", func() {
		k.EvalBatch(make([]float64, 8), 1, []float64{0, 0}, make([]float64, 4))
	})
	expectPanic("matrix too short", func() {
		k.EvalBatch(make([]float64, 6), 2, []float64{0, 0}, make([]float64, 4))
	})
}
