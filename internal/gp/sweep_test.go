package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// sweepLevels builds deterministic level values for a control grid with
// the given per-dimension level counts.
func sweepLevels(counts []int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	out := make([][]float64, len(counts))
	for d, c := range counts {
		lv := make([]float64, c)
		for l := range lv {
			lv[l] = float64(l)/float64(c) + 0.05*rng.Float64()
		}
		out[d] = lv
	}
	return out
}

// enumerateGrid builds the joint feature rows of the grid under a fixed
// context, last control dimension fastest — the order SweepPlan (and
// core.GridSpec.Enumerate) uses.
func enumerateGrid(ctx []float64, levels [][]float64) [][]float64 {
	rows := [][]float64{append([]float64(nil), ctx...)}
	for _, lv := range levels {
		next := make([][]float64, 0, len(rows)*len(lv))
		for _, r := range rows {
			for _, v := range lv {
				next = append(next, append(append([]float64(nil), r...), v))
			}
		}
		rows = next
	}
	return rows
}

// posteriors evaluates Posterior at every feature row: the reference
// every sweep test compares against bitwise.
func posteriors(g *GP, feats [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(feats))
	sigma = make([]float64, len(feats))
	for i, x := range feats {
		mu[i], sigma[i] = g.Posterior(x)
	}
	return mu, sigma
}

// sweepTestGP builds a GP over ctxDims+ctrlDims features with n random
// observations (inputs need not lie on the grid).
func sweepTestGP(t *testing.T, f Family, ctxDims, ctrlDims, n, window int, seed int64) *GP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := ctxDims + ctrlDims
	ls := make([]float64, dims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	g := New(mustKernel(f, ls), 2e-3, window)
	addSweepObs(t, g, n, rng)
	return g
}

func addSweepObs(t *testing.T, g *GP, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := make([]float64, g.dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		if err := g.Add(x, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
}

// allIndices lists every grid index of a plan in enumeration order: the
// index list of a full sweep.
func allIndices(p *SweepPlan) []int32 {
	idxs := make([]int32, p.GridSize())
	for i := range idxs {
		idxs[i] = int32(i)
	}
	return idxs
}

// sweepOne runs SweepSubset over one plan with no screen.
func sweepOne(p *SweepPlan, ctx []float64, idxs []int32, mu, sigma []float64, workers int) {
	SweepSubset([]*SweepPlan{p}, ctx, idxs, nil, [][]float64{mu}, [][]float64{sigma}, workers)
}

// requireSweepMatches asserts that the plan's full-grid sweep reproduces
// Posterior bitwise under every worker count.
func requireSweepMatches(t *testing.T, g *GP, p *SweepPlan, ctx []float64, levels [][]float64) {
	t.Helper()
	feats := enumerateGrid(ctx, levels)
	if len(feats) != p.GridSize() {
		t.Fatalf("enumerated %d rows, plan grid size %d", len(feats), p.GridSize())
	}
	refMu, refSigma := posteriors(g, feats)
	idxs := allIndices(p)
	for _, workers := range []int{1, 0, 2, 3, 8} {
		mu := make([]float64, len(feats))
		sigma := make([]float64, len(feats))
		sweepOne(p, ctx, idxs, mu, sigma, workers)
		for i := range feats {
			if !bitsEqual(mu[i], refMu[i]) || !bitsEqual(sigma[i], refSigma[i]) {
				t.Fatalf("workers=%d grid point %d: plan (%x, %x), Posterior (%x, %x)",
					workers, i, mu[i], sigma[i], refMu[i], refSigma[i])
			}
		}
	}
}

// TestSweepPlanMatchesGeneric pins the plan's contract: across kernels,
// grid shapes, observation appends, and sliding-window evictions, the
// plan's grid sweep is bitwise identical to the generic Posterior for
// every worker count.
func TestSweepPlanMatchesGeneric(t *testing.T) {
	shapes := []struct {
		ctxDims int
		counts  []int
	}{
		{3, []int{3, 4, 2, 3, 5}}, // EdgeBOL's 3+5 layout: fillSqDist's (2, 3) branch
		{3, []int{5, 4, 3, 4}},    // 3+4: two terms on each chain
		{2, []int{4, 3, 5}},       // odd chain split
		{0, []int{6, 7}},          // no context at all
		{1, []int{9}},             // single control dimension
	}
	for _, f := range families {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%v/ctx=%d/dims=%d", f, shape.ctxDims, len(shape.counts)), func(t *testing.T) {
				const window = 48
				g := sweepTestGP(t, f, shape.ctxDims, len(shape.counts), 37, window, 101)
				levels := sweepLevels(shape.counts)
				p, err := NewSweepPlan(g, shape.ctxDims, levels)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				ctx := make([]float64, shape.ctxDims)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				requireSweepMatches(t, g, p, ctx, levels)

				// Grow the window: the plan appends table rows.
				addSweepObs(t, g, 8, rng)
				for j := range ctx {
					ctx[j] = rng.Float64()
				}
				requireSweepMatches(t, g, p, ctx, levels)

				// Cross the sliding-window bound: eviction renumbers the
				// training rows and the plan must rebuild its tables.
				before := g.Evictions()
				addSweepObs(t, g, window, rng)
				if g.Evictions() == before {
					t.Fatal("expected an eviction")
				}
				requireSweepMatches(t, g, p, ctx, levels)
			})
		}
	}
}

// TestSweepPlanAcrossRefit mirrors a hyperparameter refit: a new kernel
// means a new GP and a new plan, which must again match Posterior.
func TestSweepPlanAcrossRefit(t *testing.T) {
	levels := sweepLevels([]int{4, 3, 4})
	ctx := []float64{0.3, 0.6, 0.1}
	for _, seed := range []int64{1, 2} {
		g := sweepTestGP(t, Matern32, 3, 3, 25, 0, seed)
		p, err := NewSweepPlan(g, 3, levels)
		if err != nil {
			t.Fatal(err)
		}
		requireSweepMatches(t, g, p, ctx, levels)
	}
}

// TestSweepPlanEmptyGP sweeps before any observation: prior mean and
// variance everywhere, like Posterior.
func TestSweepPlanEmptyGP(t *testing.T) {
	g := New(mustKernel(Matern32, []float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	p, err := NewSweepPlan(g, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	requireSweepMatches(t, g, p, []float64{0.4}, levels)
}

// TestNewSweepPlanErrors covers the constructor errors.
func TestNewSweepPlanErrors(t *testing.T) {
	g := New(mustKernel(Matern32, []float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	cases := []struct {
		name string
		call func() error
	}{
		{"nil gp", func() error { _, err := NewSweepPlan(nil, 1, levels); return err }},
		{"negative ctx dims", func() error { _, err := NewSweepPlan(g, -1, levels); return err }},
		{"no control dims", func() error { _, err := NewSweepPlan(g, 3, nil); return err }},
		{"dim mismatch", func() error { _, err := NewSweepPlan(g, 2, levels); return err }},
		{"empty dimension", func() error { _, err := NewSweepPlan(g, 1, [][]float64{{0.1}, {}}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.call() == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestResolveWorkers pins the auto-scaling policy: explicit counts are
// honored up to the shard cap, tiny sweeps stay serial, and large sweeps
// never exceed GOMAXPROCS.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(30, 100, 0); got != 1 {
		t.Fatalf("tiny sweep resolved to %d workers, want 1", got)
	}
	if got := resolveWorkers(1000, 14641, 4); got != 4 {
		t.Fatalf("explicit request resolved to %d workers, want 4", got)
	}
	if got := resolveWorkers(1000, 40, 64); got != 2 {
		t.Fatalf("shard cap resolved to %d workers, want 2", got)
	}
	if got := resolveWorkers(0, 14641, 0); got != 1 {
		t.Fatalf("empty training set resolved to %d workers, want 1", got)
	}
	big := resolveWorkers(100000, 100000, 0)
	if max := resolveWorkers(100000, 100000, 1<<20); big > max {
		t.Fatalf("auto workers %d exceeded explicit cap %d", big, max)
	}
}
