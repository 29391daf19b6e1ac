package core

import (
	"bytes"
	"math"
	"testing"
)

// quadEnv is a synthetic environment with a known optimum: cost falls with
// every control dimension while delay rises with resolution and falls with
// airtime/GPU speed, giving a constraint boundary the agent must respect.
type quadEnv struct {
	ctx Context
}

func (e *quadEnv) Context() Context { return e.ctx }

func (e *quadEnv) truth(x Control) KPIs {
	// Server power falls with GPU speed^-1 style shape; BS power rises with
	// airtime. Delay: high with low airtime/GPU speed and high resolution.
	delay := 0.1 + 0.6*x.Resolution + 0.5*(1-x.Airtime) + 0.4*(1-x.GPUSpeed)
	mAP := 0.1 + 0.6*x.Resolution
	server := 80 + 100*x.GPUSpeed
	bs := 4.5 + 2.5*x.Airtime + 1.5*(1-x.MCS)
	return KPIs{Delay: delay, MAP: mAP, ServerPower: server, BSPower: bs}
}

func (e *quadEnv) Measure(x Control) (KPIs, error) {
	return e.truth(x), nil // noise-free for deterministic testing
}

func testGrid() GridSpec {
	return GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1}
}

// quadNorm matches the quadEnv's KPI envelopes (delay 0.1–1.6 s, mAP
// 0.1–0.7, cost 85–190), the way DefaultNormalization matches the testbed.
func quadNorm() Normalization {
	return Normalization{
		Cost:  Affine{Center: 130, Scale: 30},
		Delay: Affine{Center: 0.5, Scale: 0.15},
		MAP:   Affine{Center: 0.4, Scale: 0.15},
	}
}

func newTestAgent(t *testing.T, cons Constraints) *Agent {
	t.Helper()
	a, err := NewAgent(Options{
		Grid:        testGrid(),
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: cons,
		Norm:        quadNorm(),
		// quadEnv is noise-free, so the observation-noise priors can be
		// tight, which also tightens the predictive safety bound.
		NoiseVars: [3]float64{1e-4, 1e-4, 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNewAgentValidation: NewAgent rejects every malformed option with an
// error — never a panic from the GP layer, never an agent whose every
// Observe or safety test would fail.
func TestNewAgentValidation(t *testing.T) {
	valid := func() Options {
		return Options{Grid: testGrid(), Constraints: Constraints{MaxDelay: 1, MinMAP: 0.3},
			Weights: CostWeights{Delta1: 1, Delta2: 1}}
	}
	if _, err := NewAgent(valid()); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	lengthScales := func(bad float64) []float64 {
		ls := make([]float64, ContextDims+ControlDims)
		for i := range ls {
			ls[i] = 1
		}
		ls[len(ls)-1] = bad
		return ls
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"zero options", func(o *Options) { *o = Options{} }},
		{"grid only", func(o *Options) { *o = Options{Grid: testGrid()} }},
		{"no weights", func(o *Options) { o.Weights = CostWeights{} }},
		{"negative delta1", func(o *Options) { o.Weights.Delta1 = -1 }},
		{"nan delta1", func(o *Options) { o.Weights.Delta1 = nan }},
		{"inf delta2", func(o *Options) { o.Weights.Delta2 = inf }},
		{"nan safe beta", func(o *Options) { o.SafeBeta = nan }},
		{"inf acq beta", func(o *Options) { o.AcqBeta = inf }},
		{"observation bound 1", func(o *Options) { o.MaxObservations = 1 }},
		{"zero length scale", func(o *Options) { o.LengthScales = lengthScales(0) }},
		{"nan length scale", func(o *Options) { o.LengthScales = lengthScales(nan) }},
		{"zero per-GP length scale", func(o *Options) { o.LengthScalesPerGP[gpDelay] = lengthScales(0) }},
		{"nan noise variance", func(o *Options) { o.NoiseVars[0] = nan }},
		{"inf noise variance", func(o *Options) { o.NoiseVars[1] = inf }},
		{"inf power noise variance", func(o *Options) { o.PowerNoiseVars[0] = inf }},
		{"nan norm center", func(o *Options) { o.Norm.Delay = Affine{Center: nan, Scale: 0.1} }},
		{"inf norm scale", func(o *Options) { o.Norm.MAP = Affine{Center: 0.5, Scale: inf} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mut(&o)
			if _, err := NewAgent(o); err == nil {
				t.Fatal("options accepted")
			}
		})
	}
}

func isSeed(a *Agent, x Control) bool {
	for _, s := range a.opts.SafeSeed {
		if controlsClose(s, x) {
			return true
		}
	}
	return false
}

func TestFirstSelectionIsSeed(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 0.6, MinMAP: 0.3})
	x, info := a.SelectControl(Context{NumUsers: 1, MeanCQI: 15})
	if !isSeed(a, x) {
		t.Fatalf("untrained agent should select from S₀, got %+v", x)
	}
	if !info.FromSeed {
		t.Fatal("selection should be flagged as seed fallback")
	}
	if info.SafeSetSize != len(a.opts.SafeSeed) {
		t.Fatalf("untrained safe set size = %d, want %d", info.SafeSetSize, len(a.opts.SafeSeed))
	}
}

func TestSafeSetGrowsWithObservations(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a := newTestAgent(t, Constraints{MaxDelay: 0.9, MinMAP: 0.3})
	_, first := a.SelectControl(env.Context())
	for i := 0; i < 25; i++ {
		if _, _, _, err := a.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	_, later := a.SelectControl(env.Context())
	if later.SafeSetSize <= first.SafeSetSize {
		t.Fatalf("safe set did not grow: %d -> %d", first.SafeSetSize, later.SafeSetSize)
	}
}

func TestAgentConvergesToCheapFeasible(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	cons := Constraints{MaxDelay: 0.9, MinMAP: 0.3}
	a := newTestAgent(t, cons)
	var last Control
	for i := 0; i < 60; i++ {
		x, k, _, err := a.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		last = x
		_ = k
	}
	// Exhaustive optimum over the same grid.
	grid, err := testGrid().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	bestCost := math.Inf(1)
	w := CostWeights{Delta1: 1, Delta2: 1}
	for _, x := range grid {
		k := env.truth(x)
		if cons.Satisfied(k) && w.Cost(k) < bestCost {
			bestCost = w.Cost(k)
		}
	}
	finalCost := w.Cost(env.truth(last))
	if !cons.Satisfied(env.truth(last)) {
		t.Fatalf("final control %+v violates constraints: %+v", last, env.truth(last))
	}
	if finalCost > bestCost*1.10 {
		t.Fatalf("final cost %v more than 10%% above optimum %v", finalCost, bestCost)
	}
}

func TestAgentRespectsConstraintsDuringLearning(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	cons := Constraints{MaxDelay: 0.9, MinMAP: 0.3}
	a := newTestAgent(t, cons)
	violations := 0
	const steps, burnIn = 60, 10
	for i := 0; i < steps; i++ {
		_, k, _, err := a.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		// S₀ is *assumed* safe and may contain violating members that the
		// agent must sample to discover; only post-burn-in picks count.
		if i >= burnIn && !cons.Satisfied(k) {
			violations++
		}
	}
	// The paper reports ≥0.98 satisfaction probability; in a noise-free
	// environment the safe set should essentially never violate after
	// burn-in.
	if violations > (steps-burnIn)/20 {
		t.Fatalf("%d/%d constraint violations after burn-in", violations, steps-burnIn)
	}
}

func TestSetConstraintsTakesEffectImmediately(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a := newTestAgent(t, Constraints{MaxDelay: 1.2, MinMAP: 0.2})
	for i := 0; i < 40; i++ {
		if _, _, _, err := a.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	// Tighten: previously chosen cheap controls may now violate.
	tight := Constraints{MaxDelay: 0.8, MinMAP: 0.4}
	if err := a.SetConstraints(tight); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, k, _, err := a.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		if !tight.Satisfied(k) {
			t.Fatalf("violated tightened constraints at step %d: %+v", i, k)
		}
	}
	if err := a.SetConstraints(Constraints{MaxDelay: 0}); err == nil {
		t.Fatal("expected error for invalid constraints")
	}
}

func TestObserveRejectsInvalidControl(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 1, MinMAP: 0.2})
	if err := a.Observe(Context{NumUsers: 1, MeanCQI: 15}, Control{}, KPIs{}); err == nil {
		t.Fatal("expected error for invalid control")
	}
}

// TestObserveIsAllOrNothing: an Observe rejected for a non-finite or
// out-of-range KPI or context changes nothing — the checkpoint bytes
// before and after are identical — on both GP engines, and the agent then
// learns the valid sample as usual.
func TestObserveIsAllOrNothing(t *testing.T) {
	engines := []struct {
		name string
		mut  func(*Options)
	}{
		{"exact", func(o *Options) {}},
		{"sparse", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
		}},
	}
	faults := []struct {
		name string
		ctx  func(*Context)
		kpis func(*KPIs)
	}{
		{"nan delay", func(*Context) {}, func(k *KPIs) { k.Delay = math.NaN() }},
		{"nan mean cqi", func(c *Context) { c.MeanCQI = math.NaN() }, func(*KPIs) {}},
		{"negative users", func(c *Context) { c.NumUsers = -1 }, func(*KPIs) {}},
		{"mean cqi 16", func(c *Context) { c.MeanCQI = 16 }, func(*KPIs) {}},
		{"negative delay", func(*Context) {}, func(k *KPIs) { k.Delay = -0.1 }},
		{"map 1.2", func(*Context) {}, func(k *KPIs) { k.MAP = 1.2 }},
	}
	for _, eng := range engines {
		for _, f := range faults {
			t.Run(eng.name+"/"+f.name, func(t *testing.T) {
				opts := testOptions()
				eng.mut(&opts)
				a, err := NewAgent(opts)
				if err != nil {
					t.Fatal(err)
				}
				runPeriods(t, a, 0, 5)
				ctx := scriptContext(5)
				x, _ := a.SelectControl(ctx)
				k := scriptKPIs(5, x)
				save := func() []byte {
					var buf bytes.Buffer
					if err := a.SaveCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				before := save()
				badCtx, badK := ctx, k
				f.ctx(&badCtx)
				f.kpis(&badK)
				if err := a.Observe(badCtx, x, badK); err == nil {
					t.Fatal("invalid observation accepted")
				}
				if !bytes.Equal(save(), before) {
					t.Fatal("rejected Observe changed the agent's state")
				}
				if err := a.Observe(ctx, x, k); err != nil {
					t.Fatal(err)
				}
				for i, g := range a.gps {
					if g.Len() != 6 {
						t.Fatalf("GP %d holds %d samples after 6 valid periods", i, g.Len())
					}
				}
			})
		}
	}
}

func TestKnowledgeTransfersAcrossContexts(t *testing.T) {
	// Train in one context, then check the safe set in a *similar* context
	// is non-trivial immediately (Fig. 13's cross-context transfer).
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a := newTestAgent(t, Constraints{MaxDelay: 0.9, MinMAP: 0.3})
	for i := 0; i < 30; i++ {
		if _, _, _, err := a.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	_, info := a.SelectControl(Context{NumUsers: 1, MeanCQI: 14})
	if info.SafeSetSize <= len(a.opts.SafeSeed) {
		t.Fatal("no knowledge transferred to the neighbouring context")
	}
}

func TestSeedAlwaysInSafeSet(t *testing.T) {
	// Infeasible constraints: the safe set must converge to S₀ (the §5
	// "Practical Issues" behaviour), never go empty.
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a := newTestAgent(t, Constraints{MaxDelay: 0.05, MinMAP: 0.99})
	for i := 0; i < 20; i++ {
		x, _, info, err := a.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		if info.SafeSetSize < 1 {
			t.Fatal("safe set went empty")
		}
		if !isSeed(a, x) {
			t.Fatalf("infeasible problem should pin the agent to S₀, got %+v", x)
		}
	}
}

func TestSlidingWindowAgent(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	a, err := NewAgent(Options{
		Grid:            testGrid(),
		Weights:         CostWeights{Delta1: 1, Delta2: 1},
		Constraints:     Constraints{MaxDelay: 0.9, MinMAP: 0.3},
		MaxObservations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, _, err := a.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.gps[gpCost].Len(); got > 20 {
		t.Fatalf("window not enforced: %d observations", got)
	}
	// The agent must still pick feasible controls.
	x, _ := a.SelectControl(env.Context())
	if !(Constraints{MaxDelay: 0.9, MinMAP: 0.3}).Satisfied(env.truth(x)) {
		t.Fatal("windowed agent selected an infeasible control")
	}
}

func TestDefaultNormalization(t *testing.T) {
	n := DefaultNormalization(CostWeights{Delta1: 1, Delta2: 8})
	if n.Cost.Scale <= 0 || n.Delay.Scale <= 0 || n.MAP.Scale <= 0 {
		t.Fatalf("invalid default normalization %+v", n)
	}
	if n.Cost.Scale <= DefaultNormalization(CostWeights{Delta1: 1, Delta2: 1}).Cost.Scale {
		t.Fatal("cost scale should grow with δ₂")
	}
	if got := (Affine{Center: 2, Scale: 4}).Norm(10); got != 2 {
		t.Fatalf("Affine.Norm = %v, want 2", got)
	}
}
