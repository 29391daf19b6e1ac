package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestGP() *GP {
	return New(mustKernel(Matern32, []float64{0.5}), 1e-4, 0)
}

func TestPriorPosterior(t *testing.T) {
	g := newTestGP()
	mu, sigma := g.Posterior([]float64{0.3})
	if mu != 0 {
		t.Fatalf("prior mean = %v, want 0", mu)
	}
	if math.Abs(sigma-1) > 1e-12 {
		t.Fatalf("prior sigma = %v, want 1", sigma)
	}
}

func TestPosteriorInterpolatesObservations(t *testing.T) {
	g := newTestGP()
	pts := []float64{0.1, 0.5, 0.9}
	vals := []float64{1, -2, 0.5}
	for i, p := range pts {
		if err := g.Add([]float64{p}, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pts {
		mu, sigma := g.Posterior([]float64{p})
		if math.Abs(mu-vals[i]) > 0.05 {
			t.Fatalf("posterior mean at observed %v = %v, want ~%v", p, mu, vals[i])
		}
		if sigma > 0.05 {
			t.Fatalf("posterior sigma at observed point = %v, want near 0", sigma)
		}
	}
}

func TestPosteriorUncertaintyGrowsWithDistance(t *testing.T) {
	g := newTestGP()
	if err := g.Add([]float64{0}, 1); err != nil {
		t.Fatal(err)
	}
	_, near := g.Posterior([]float64{0.1})
	_, far := g.Posterior([]float64{3})
	if near >= far {
		t.Fatalf("sigma near (%v) should be below sigma far (%v)", near, far)
	}
}

func TestPosteriorRevertsToPriorFarAway(t *testing.T) {
	g := newTestGP()
	if err := g.Add([]float64{0}, 5); err != nil {
		t.Fatal(err)
	}
	mu, sigma := g.Posterior([]float64{50})
	if math.Abs(mu) > 1e-6 || math.Abs(sigma-1) > 1e-6 {
		t.Fatalf("far posterior (%v, %v) should match prior (0, 1)", mu, sigma)
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	g := newTestGP()
	if err := g.Add([]float64{1, 2}, 0); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
}

func TestAddNonFinite(t *testing.T) {
	g := newTestGP()
	if err := g.Add([]float64{0}, math.NaN()); err == nil {
		t.Fatal("expected error for NaN observation")
	}
	if err := g.Add([]float64{0}, math.Inf(1)); err == nil {
		t.Fatal("expected error for Inf observation")
	}
}

func TestAddCopiesInput(t *testing.T) {
	g := newTestGP()
	x := []float64{0.5}
	if err := g.Add(x, 1); err != nil {
		t.Fatal(err)
	}
	x[0] = 99
	mu, _ := g.Posterior([]float64{0.5})
	if math.Abs(mu-1) > 0.05 {
		t.Fatal("GP must copy inputs on Add")
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	g := New(mustKernel(Matern32, []float64{0.5}), 1e-4, 10)
	for i := 0; i < 25; i++ {
		if err := g.Add([]float64{float64(i) / 25}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() > 10 {
		t.Fatalf("window not enforced: %d observations retained", g.Len())
	}
	// Recent observations must still be fitted.
	mu, _ := g.Posterior([]float64{24.0 / 25})
	if math.Abs(mu-24) > 1 {
		t.Fatalf("recent observation forgotten: posterior %v, want ~24", mu)
	}
}

func TestWindowedMatchesUnwindowedOnRecentData(t *testing.T) {
	// After eviction, the windowed GP must equal a fresh GP trained on the
	// surviving observations.
	w := New(mustKernel(Matern32, []float64{0.3}), 1e-3, 6)
	var xs [][]float64
	var ys []float64
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 9; i++ {
		x := []float64{rng.Float64() * 2}
		y := rng.NormFloat64()
		xs = append(xs, x)
		ys = append(ys, y)
		if err := w.Add(x, y); err != nil {
			t.Fatal(err)
		}
	}
	// Window 6 hit at i=6: drops 3, keeps xs[3:]. No further eviction by i=8.
	fresh := New(mustKernel(Matern32, []float64{0.3}), 1e-3, 0)
	for i := 3; i < 9; i++ {
		if err := fresh.Add(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != fresh.Len() {
		t.Fatalf("window retained %d, fresh has %d", w.Len(), fresh.Len())
	}
	for p := 0.0; p <= 2; p += 0.2 {
		mw, sw := w.Posterior([]float64{p})
		mf, sf := fresh.Posterior([]float64{p})
		if math.Abs(mw-mf) > 1e-8 || math.Abs(sw-sf) > 1e-8 {
			t.Fatalf("windowed and fresh posteriors diverge at %v: (%v,%v) vs (%v,%v)", p, mw, sw, mf, sf)
		}
	}
}

func TestLogMarginalLikelihoodPrefersTruth(t *testing.T) {
	// Data generated from a smooth function should score higher evidence
	// with a sensible length scale than with an absurd one.
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		x := rng.Float64()
		xs[i] = []float64{x}
		ys[i] = math.Sin(4*x) + 0.01*rng.NormFloat64()
	}
	ll := func(scale float64) float64 {
		g := New(mustKernel(Matern32, []float64{scale}), 1e-3, 0)
		for i := range xs {
			if err := g.Add(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		return g.LogMarginalLikelihood()
	}
	if ll(0.3) <= ll(1e-3) {
		t.Fatal("sensible length scale should beat an absurdly short one")
	}
	if ll(0.3) <= ll(100) {
		t.Fatal("sensible length scale should beat an absurdly long one")
	}
}

// Property: posterior variance never exceeds prior variance.
func TestPosteriorVarianceShrinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(mustKernel(Matern32, []float64{0.5, 0.5}), 1e-3, 0)
		for i := 0; i < 8; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			if err := g.Add(x, rng.NormFloat64()); err != nil {
				return false
			}
		}
		for i := 0; i < 10; i++ {
			q := []float64{rng.Float64(), rng.Float64()}
			_, sigma := g.Posterior(q)
			if sigma > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an observation reduces (or keeps) posterior variance at
// the observed location.
func TestVarianceMonotoneAtObservedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(mustKernel(Matern32, []float64{0.7}), 1e-3, 0)
		q := []float64{rng.Float64()}
		_, before := g.Posterior(q)
		if err := g.Add(q, rng.NormFloat64()); err != nil {
			return false
		}
		_, after := g.Posterior(q)
		return after <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(nil, 1e-3, 0) },
		func() { New(mustKernel(Matern32, []float64{1}), 0, 0) },
		func() { New(mustKernel(Matern32, []float64{1}), -1, 0) },
		func() { New(mustKernel(Matern32, []float64{1}), 1e-3, -1) },
		func() { New(mustKernel(Matern32, []float64{1}), 1e-3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}
