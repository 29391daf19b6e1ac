package gp

import (
	"math"
	"math/rand"
	"testing"
)

func syntheticData(rng *rand.Rand, n int, noise float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := []float64{rng.Float64(), rng.Float64()}
		xs[i] = x
		ys[i] = math.Sin(5*x[0]) + 0.3*x[1] + noise*rng.NormFloat64()
	}
	return xs, ys
}

func TestFitRecoversReasonableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := syntheticData(rng, 40, 0.05)
	hp, ll, err := Fit(Matern32, xs, ys, DefaultFitOptions(rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(hp.LengthScales) != 2 {
		t.Fatalf("fitted %d length scales, want 2", len(hp.LengthScales))
	}
	if hp.NoiseVar <= 0 {
		t.Fatalf("fitted non-positive noise %v", hp.NoiseVar)
	}
	// The fitted model must beat a deliberately bad one.
	bad, err2 := evidence(mustKernel(Matern32, []float64{1e-3, 1e-3}), 1e-6, xs, ys)
	if err2 != nil {
		t.Fatal(err2)
	}
	if ll <= bad {
		t.Fatalf("fitted evidence %v not better than degenerate %v", ll, bad)
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	opts := DefaultFitOptions(rng)
	if _, _, err := Fit(Matern32, nil, nil, opts); err == nil {
		t.Fatal("expected error for empty data")
	}
	xs, ys := syntheticData(rng, 5, 0)
	if _, _, err := Fit(Matern32, xs, ys[:3], opts); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	badOpts := opts
	badOpts.Rand = nil
	if _, _, err := Fit(Matern32, xs, ys, badOpts); err == nil {
		t.Fatal("expected error for nil Rand")
	}
	badOpts = opts
	badOpts.Iterations = 0
	if _, _, err := Fit(Matern32, xs, ys, badOpts); err == nil {
		t.Fatal("expected error for zero iterations")
	}
	// Every search bound must be finite and positive; an inverted range is
	// searched as given.
	for i, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, set := range []func(*FitOptions){
			func(o *FitOptions) { o.LengthScaleMin = bad },
			func(o *FitOptions) { o.LengthScaleMax = bad },
			func(o *FitOptions) { o.NoiseVarMin = bad },
			func(o *FitOptions) { o.NoiseVarMax = bad },
		} {
			badOpts = opts
			set(&badOpts)
			if _, _, err := Fit(Matern32, xs, ys, badOpts); err == nil {
				t.Fatalf("bound %d (%v) accepted", i, bad)
			}
		}
	}
	badOpts = opts
	badOpts.LengthScaleMin, badOpts.LengthScaleMax = badOpts.LengthScaleMax, badOpts.LengthScaleMin
	if _, _, err := Fit(Matern32, xs, ys, badOpts); err != nil {
		t.Fatalf("inverted length-scale range rejected: %v", err)
	}
}

func TestFitGeneralizes(t *testing.T) {
	// A GP built from fitted hyperparameters should predict held-out points
	// better than the prior (mean 0).
	rng := rand.New(rand.NewSource(3))
	trainX, trainY := syntheticData(rng, 50, 0.05)
	testX, testY := syntheticData(rng, 20, 0.0)

	hp, _, err := Fit(Matern32, trainX, trainY, DefaultFitOptions(rng))
	if err != nil {
		t.Fatal(err)
	}
	g := New(mustKernel(Matern32, hp.LengthScales), hp.NoiseVar, 0)
	for i := range trainX {
		if err := g.Add(trainX[i], trainY[i]); err != nil {
			t.Fatal(err)
		}
	}
	var mseGP, msePrior float64
	for i := range testX {
		mu, _ := g.Posterior(testX[i])
		mseGP += (mu - testY[i]) * (mu - testY[i])
		msePrior += testY[i] * testY[i]
	}
	if mseGP >= msePrior {
		t.Fatalf("fitted GP mse %v not better than prior mse %v", mseGP, msePrior)
	}
}

// TestFactories fits a kernel of every family and rejects an unknown one.
func TestFactories(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := syntheticData(rng, 10, 0.05)
	opts := DefaultFitOptions(rng)
	opts.Iterations = 3
	for _, f := range families {
		hp, _, err := Fit(f, xs, ys, opts)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if len(hp.LengthScales) != 2 {
			t.Fatalf("%v: fitted %d length scales, want 2", f, len(hp.LengthScales))
		}
	}
	if _, _, err := Fit(RBF+1, xs, ys, opts); err == nil {
		t.Fatal("expected error for an unknown family")
	}
}
