package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestPretrainFitsAllObjectives(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	res, err := Pretrain(env, testGrid(), w, PretrainOptions{Samples: 40, FitIterations: 25, Norm: quadNorm()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 40 {
		t.Fatalf("Samples = %d, want 40", res.Samples)
	}
	for i := 0; i < 3; i++ {
		if len(res.LengthScales[i]) != ContextDims+ControlDims {
			t.Fatalf("objective %d: %d length scales", i, len(res.LengthScales[i]))
		}
		if res.NoiseVars[i] <= 0 {
			t.Fatalf("objective %d: noise %v", i, res.NoiseVars[i])
		}
		for _, ls := range res.LengthScales[i] {
			if ls <= 0 {
				t.Fatalf("objective %d: non-positive length scale", i)
			}
		}
	}
}

func TestPretrainValidation(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	if _, err := Pretrain(nil, testGrid(), w, PretrainOptions{}, 1); err == nil {
		t.Fatal("expected error for nil env")
	}
	if _, err := Pretrain(env, GridSpec{}, w, PretrainOptions{}, 1); err == nil {
		t.Fatal("expected error for invalid grid")
	}
	if _, err := Pretrain(env, testGrid(), w, PretrainOptions{Samples: 3}, 1); err == nil {
		t.Fatal("expected error for too few samples")
	}
}

// TestPretrainIndexesTheGrid runs Pretrain on the 31⁴×8 grid, whose
// enumeration alone takes about 280 MiB: the samples must be drawn by
// grid index, not from a materialized grid.
// TestPretrainRejectsBadOptions: every option NewAgent would reject, or
// that gp.Fit cannot search, returns an error naming the bad input.
func TestPretrainRejectsBadOptions(t *testing.T) {
	w := CostWeights{Delta1: 1, Delta2: 1}
	cases := []struct {
		name string
		mut  func(*PretrainOptions)
		want string
	}{
		{"negative length-scale floor", func(o *PretrainOptions) { o.MinLengthScale = -1 }, "length scale -1"},
		{"NaN length-scale floor", func(o *PretrainOptions) { o.MinLengthScale = math.NaN() }, "length scale NaN"},
		{"infinite length-scale floor", func(o *PretrainOptions) { o.MinLengthScale = math.Inf(1) }, "length scales [+Inf, 6]"},
		{"negative delay scale", func(o *PretrainOptions) { o.Norm.Delay.Scale = -0.1 }, "delay normalization {Center:0.5 Scale:-0.1}"},
		{"NaN delay scale", func(o *PretrainOptions) { o.Norm.Delay.Scale = math.NaN() }, "delay normalization {Center:0.5 Scale:NaN}"},
		{"infinite cost center", func(o *PretrainOptions) { o.Norm.Cost.Center = math.Inf(-1) }, "cost normalization {Center:-Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := PretrainOptions{Samples: 8, FitIterations: 1, Norm: quadNorm()}
			tc.mut(&opts)
			env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
			_, err := Pretrain(env, testGrid(), w, opts, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestPretrainIndexesTheGrid(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	grid := GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1,
		LevelsPerDim: [ControlDims]int{31, 31, 31, 31, 8}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Pretrain(env, grid, w, PretrainOptions{Samples: 8, FitIterations: 1, Norm: quadNorm()}, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("Pretrain allocated %.1f MiB on a %d-point grid, want at most 64 MiB", float64(got)/(1<<20), grid.Size())
	}
}

func TestPretrainApplyAndRun(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	res, err := Pretrain(env, testGrid(), w, PretrainOptions{Samples: 40, FitIterations: 25, Norm: quadNorm()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Grid:        testGrid(),
		Weights:     w,
		Constraints: Constraints{MaxDelay: 0.9, MinMAP: 0.3},
		Norm:        quadNorm(),
	}
	res.Apply(&opts)
	agent, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A fitted agent must still run and improve.
	var first, last float64
	for i := 0; i < 40; i++ {
		_, k, _, err := agent.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		cost := w.Cost(k)
		if i == 0 {
			first = cost
		}
		last = cost
	}
	if last > first {
		t.Fatalf("fitted agent regressed: first %v last %v", first, last)
	}
}

func TestLengthScalesPerGPValidation(t *testing.T) {
	opts := Options{
		Grid:        testGrid(),
		Weights:     CostWeights{Delta1: 1, Delta2: 1},
		Constraints: Constraints{MaxDelay: 0.9, MinMAP: 0.3},
	}
	opts.LengthScalesPerGP[1] = []float64{1, 2} // wrong dimension
	if _, err := NewAgent(opts); err == nil {
		t.Fatal("expected error for mismatched per-GP length scales")
	}
}

func TestDecomposedCostWeightsChange(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	agent, err := NewAgent(Options{
		Grid:           testGrid(),
		Weights:        w,
		Constraints:    Constraints{MaxDelay: 0.9, MinMAP: 0.3},
		Norm:           quadNorm(),
		NoiseVars:      [3]float64{1e-4, 1e-4, 1e-4},
		PowerNoiseVars: [2]float64{1e-4, 1e-4},
		DecomposedCost: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, _, err := agent.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	// In quadEnv, server power falls with GPU speed and BS power with
	// airtime/MCS. With δ₂ huge, the optimum shifts toward lower airtime.
	xBefore, _ := agent.SelectControl(env.Context())
	if err := agent.SetWeights(CostWeights{Delta1: 0.01, Delta2: 50}); err != nil {
		t.Fatal(err)
	}
	var xAfter Control
	for i := 0; i < 15; i++ {
		x, _, _, err := agent.Step(env)
		if err != nil {
			t.Fatal(err)
		}
		xAfter = x
	}
	costBefore := CostWeights{Delta1: 0.01, Delta2: 50}.Cost(env.truth(xBefore))
	costAfter := CostWeights{Delta1: 0.01, Delta2: 50}.Cost(env.truth(xAfter))
	if costAfter > costBefore {
		t.Fatalf("weight change should re-optimize: before %v after %v", costBefore, costAfter)
	}
}

func TestSetWeightsRequiresDecomposedMode(t *testing.T) {
	agent := newTestAgent(t, Constraints{MaxDelay: 0.9, MinMAP: 0.3})
	if err := agent.SetWeights(CostWeights{Delta1: 1, Delta2: 2}); err == nil {
		t.Fatal("expected error outside decomposed mode")
	}
}

func TestSetWeightsValidation(t *testing.T) {
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	agent, err := NewAgent(Options{
		Grid:           testGrid(),
		Weights:        CostWeights{Delta1: 1, Delta2: 1},
		Constraints:    Constraints{MaxDelay: 0.9, MinMAP: 0.3},
		Norm:           quadNorm(),
		DecomposedCost: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := agent.Step(env); err != nil {
		t.Fatal(err)
	}
	if err := agent.SetWeights(CostWeights{}); err == nil {
		t.Fatal("expected error for zero weights")
	}
	if err := agent.SetWeights(CostWeights{Delta1: -1, Delta2: 1}); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestDecomposedMatchesJointOnFixedWeights(t *testing.T) {
	// With fixed weights, decomposed and joint agents should land on
	// similar-quality solutions (not identical — different exploration).
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	w := CostWeights{Delta1: 1, Delta2: 1}
	cons := Constraints{MaxDelay: 0.9, MinMAP: 0.3}
	runTail := func(decomposed bool) float64 {
		agent, err := NewAgent(Options{
			Grid:           testGrid(),
			Weights:        w,
			Constraints:    cons,
			Norm:           quadNorm(),
			NoiseVars:      [3]float64{1e-4, 1e-4, 1e-4},
			PowerNoiseVars: [2]float64{1e-4, 1e-4},
			DecomposedCost: decomposed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for i := 0; i < 60; i++ {
			_, k, _, err := agent.Step(env)
			if err != nil {
				t.Fatal(err)
			}
			last = w.Cost(k)
		}
		return last
	}
	joint := runTail(false)
	decomposed := runTail(true)
	if decomposed > joint*1.25 {
		t.Fatalf("decomposed cost %v much worse than joint %v", decomposed, joint)
	}
}
