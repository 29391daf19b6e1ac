package gp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
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
func sweepTestGP(t *testing.T, kernel func([]float64) Kernel, ctxDims, ctrlDims, n, window int, seed int64) *GP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := ctxDims + ctrlDims
	ls := make([]float64, dims)
	for i := range ls {
		ls[i] = 0.3 + rng.Float64()
	}
	g := New(kernel(ls), 2e-3, window)
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
		p.SweepSubset(ctx, idxs, mu, sigma, workers)
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
	kernels := []struct {
		name string
		make func([]float64) Kernel
	}{
		{"matern32", func(ls []float64) Kernel { return NewMatern32(ls) }},
		{"matern52", func(ls []float64) Kernel { return NewMatern52(ls) }},
		{"rbf", func(ls []float64) Kernel { return NewRBF(ls) }},
	}
	shapes := []struct {
		ctxDims int
		counts  []int
	}{
		{3, []int{5, 4, 3, 4}}, // EdgeBOL's 3+4 layout
		{2, []int{4, 3, 5}},    // odd chain split
		{0, []int{6, 7}},       // no context at all
		{1, []int{9}},          // single control dimension
	}
	for _, k := range kernels {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%s/ctx=%d/dims=%d", k.name, shape.ctxDims, len(shape.counts)), func(t *testing.T) {
				const window = 48
				g := sweepTestGP(t, k.make, shape.ctxDims, len(shape.counts), 37, window, 101)
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
		g := sweepTestGP(t, func(ls []float64) Kernel { return NewMatern32(ls) }, 3, 3, 25, 0, seed)
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
	g := New(NewMatern32([]float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	p, err := NewSweepPlan(g, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	requireSweepMatches(t, g, p, []float64{0.4}, levels)
}

// opaque wraps a kernel to defeat the plan's concrete-type dispatch.
type opaque struct{ Kernel }

// TestNewSweepPlanErrors covers the constructor errors; a foreign kernel
// wraps ErrUnsupportedKernel.
func TestNewSweepPlanErrors(t *testing.T) {
	g := New(NewMatern32([]float64{0.5, 0.5, 0.5}), 1e-3, 0)
	levels := sweepLevels([]int{3, 4})
	cases := []struct {
		name string
		call func() error
		want error // matched with errors.Is when set
	}{
		{"nil gp", func() error { _, err := NewSweepPlan(nil, 1, levels); return err }, nil},
		{"foreign kernel", func() error {
			w := New(&opaque{NewMatern32([]float64{0.5, 0.5, 0.5})}, 1e-3, 0)
			_, err := NewSweepPlan(w, 1, levels)
			return err
		}, ErrUnsupportedKernel},
		{"negative ctx dims", func() error { _, err := NewSweepPlan(g, -1, levels); return err }, nil},
		{"no control dims", func() error { _, err := NewSweepPlan(g, 3, nil); return err }, nil},
		{"dim mismatch", func() error { _, err := NewSweepPlan(g, 2, levels); return err }, nil},
		{"empty dimension", func() error { _, err := NewSweepPlan(g, 1, [][]float64{{0.1}, {}}); return err }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("expected error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSweepPlanTelemetry checks the build/refresh counters and row gauge
// across the plan lifecycle: construction, append, eviction rebuild.
func TestSweepPlanTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	const window = 16
	g := sweepTestGP(t, func(ls []float64) Kernel { return NewMatern32(ls) }, 1, 2, 10, window, 3)
	levels := sweepLevels([]int{3, 3})
	p, err := NewSweepPlan(g, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(reg, "cost")
	builds := reg.Counter("edgebol_gp_sweep_plan_builds_total", "gp", "cost")
	refreshes := reg.Counter("edgebol_gp_sweep_plan_refreshes_total", "gp", "cost")
	rows := reg.Gauge("edgebol_gp_sweep_plan_rows", "gp", "cost")
	if rows.Value() != 10 { //edgebol:allow floateq -- gauge stores the exact integer
		t.Fatalf("row gauge %v after construction, want 10", rows.Value())
	}
	ctx := []float64{0.5}
	idxs := allIndices(p)
	mu := make([]float64, p.GridSize())
	sigma := make([]float64, p.GridSize())
	rng := rand.New(rand.NewSource(5))

	addSweepObs(t, g, 2, rng)
	p.SweepSubset(ctx, idxs, mu, sigma, 1)
	if got := refreshes.Value(); got != 1 {
		t.Fatalf("refreshes %d after append, want 1", got)
	}
	if rows.Value() != 12 { //edgebol:allow floateq -- gauge stores the exact integer
		t.Fatalf("row gauge %v after append, want 12", rows.Value())
	}

	addSweepObs(t, g, window, rng) // crosses the bound: eviction
	if g.Evictions() == 0 {
		t.Fatal("expected an eviction")
	}
	p.SweepSubset(ctx, idxs, mu, sigma, 1)
	if got := builds.Value(); got != 1 {
		t.Fatalf("builds %d after eviction (construction-time build is uninstrumented), want 1", got)
	}
}

// TestResolveWorkers pins the auto-scaling policy: explicit counts are
// honored up to the shard cap, tiny sweeps stay serial, and large sweeps
// never exceed GOMAXPROCS.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(30, 100, 0); got != 1 {
		t.Fatalf("tiny sweep resolved to %d workers, want 1", got)
	}
	if got := ResolveWorkers(1000, 14641, 4); got != 4 {
		t.Fatalf("explicit request resolved to %d workers, want 4", got)
	}
	if got := ResolveWorkers(1000, 40, 64); got != 2 {
		t.Fatalf("shard cap resolved to %d workers, want 2", got)
	}
	if got := ResolveWorkers(0, 14641, 0); got != 1 {
		t.Fatalf("empty training set resolved to %d workers, want 1", got)
	}
	big := ResolveWorkers(100000, 100000, 0)
	if max := ResolveWorkers(100000, 100000, 1<<20); big > max {
		t.Fatalf("auto workers %d exceeded explicit cap %d", big, max)
	}
}
