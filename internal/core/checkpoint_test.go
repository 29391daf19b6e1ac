package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gp"
	"repro/internal/telemetry"
)

// scriptContext and scriptKPIs form a fully deterministic environment: no
// randomness anywhere, so two agents fed the same period indices see
// bit-identical inputs and any divergence is the checkpoint's fault.
func scriptContext(t int) Context {
	return Context{NumUsers: 1 + t%5, MeanCQI: 7 + float64(t%6), VarCQI: float64(t % 4)}
}

func scriptKPIs(t int, x Control) KPIs {
	phase := float64(t%7) / 7
	return KPIs{
		Delay:       0.08 + 0.35*x.Resolution/(0.25+x.GPUSpeed) + 0.05*phase,
		GPUDelay:    0.02 + 0.1*x.Resolution/(0.25+x.GPUSpeed),
		MAP:         0.35 + 0.5*x.Resolution*math.Sqrt(x.Airtime) - 0.02*phase,
		ServerPower: 80 + 110*x.GPUSpeed + 25*x.Resolution,
		BSPower:     4.2 + 3.1*x.Airtime + 0.4*x.MCS,
	}
}

// stepResult captures everything observable about one period that must be
// bitwise identical across a checkpoint/restore boundary.
type stepResult struct {
	x    Control
	info SelectionInfo
}

func runPeriods(t *testing.T, a *Agent, from, to int) []stepResult {
	t.Helper()
	out := make([]stepResult, 0, to-from)
	for i := from; i < to; i++ {
		ctx := scriptContext(i)
		x, info := a.SelectControl(ctx)
		if err := a.Observe(ctx, x, scriptKPIs(i, x)); err != nil {
			t.Fatalf("period %d: Observe: %v", i, err)
		}
		out = append(out, stepResult{x: x, info: info})
	}
	return out
}

func assertSameSteps(t *testing.T, got, want []stepResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d steps, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.x != w.x {
			t.Fatalf("step %d: control %+v, want %+v", i, g.x, w.x)
		}
		// Bitwise posterior comparison: any float drift is a failure.
		if g.info.LCB != w.info.LCB ||
			g.info.Cost != w.info.Cost ||
			g.info.Delay != w.info.Delay ||
			g.info.MAP != w.info.MAP ||
			g.info.SafeSetSize != w.info.SafeSetSize ||
			g.info.FromSeed != w.info.FromSeed {
			t.Fatalf("step %d: info diverged:\n got %+v\nwant %+v", i, g.info, w.info)
		}
	}
}

// wrappedKernel hides a package kernel behind a foreign type that
// gp.NewSweepPlan cannot factorize, so NewAgent must reject it.
type wrappedKernel struct{ gp.Kernel }

func wrappedFactory(ls []float64) gp.Kernel {
	return &wrappedKernel{gp.Matern32Factory(ls)}
}

func testOptions() Options {
	return Options{
		Grid:        GridSpec{Levels: 3, MinResolution: 0.2, MinAirtime: 0.2},
		Weights:     CostWeights{Delta1: 1e-3, Delta2: 1e-2},
		Constraints: Constraints{MaxDelay: 0.7, MinMAP: 0.3},
	}
}

// TestCheckpointRestoreEquivalence is the tentpole guarantee: run T
// periods uninterrupted; separately run T/2 periods, checkpoint, restore
// into a fresh agent, and run the remaining T/2. The restored agent's
// every selection and posterior must be bitwise identical to the
// uninterrupted run — across worker counts, with sliding-window
// evictions, with decomposed power GPs, and on both GP engines.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	const T = 26
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"workers=2", func(o *Options) { o.InferenceWorkers = 2 }},
		{"workers=auto", func(o *Options) { o.InferenceWorkers = 0 }},
		{"evicting", func(o *Options) { o.MaxObservations = 8 }},
		{"decomposed", func(o *Options) { o.DecomposedCost = true }},
		{"decomposed evicting", func(o *Options) {
			o.DecomposedCost = true
			o.MaxObservations = 8
		}},
		{"safeopt", func(o *Options) { o.Rule = AcquisitionSafeOpt }},
		{"sparse", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
		}},
		{"sparse decomposed", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
			o.DecomposedCost = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			tc.mut(&opts)

			straight, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			full := runPeriods(t, straight, 0, T)

			interrupted, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			firstHalf := runPeriods(t, interrupted, 0, T/2)
			assertSameSteps(t, firstHalf, full[:T/2])

			var buf bytes.Buffer
			if err := interrupted.SaveCheckpoint(&buf); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			restored, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), opts)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			if restored.Observations() != T/2 {
				t.Fatalf("restored period counter %d, want %d", restored.Observations(), T/2)
			}
			secondHalf := runPeriods(t, restored, T/2, T)
			assertSameSteps(t, secondHalf, full[T/2:])

			// The per-GP internals must land bitwise where the straight
			// run's did.
			for i := range straight.gps {
				s1 := straight.gps[i].Snapshot()
				s2 := restored.gps[i].Snapshot()
				if !gpStatesEqual(s1, s2) {
					t.Fatalf("final GP %d state diverged", i)
				}
			}
		})
	}
}

func gpStatesEqual(a, b gp.State) bool {
	if a.Kernel != b.Kernel || a.NoiseVar != b.NoiseVar || a.MaxObs != b.MaxObs ||
		a.Dim != b.Dim || a.Jitter != b.Jitter || a.Evictions != b.Evictions {
		return false
	}
	if a.Engine != b.Engine || a.MaxInducing != b.MaxInducing ||
		a.SumYY != b.SumYY || a.KmmJitter != b.KmmJitter || a.SigJitter != b.SigJitter ||
		a.Inserts != b.Inserts || a.Swaps != b.Swaps || a.SinceRefactor != b.SinceRefactor {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.Xs, b.Xs) && eq(a.Ys, b.Ys) && eq(a.Factor, b.Factor) && eq(a.LengthScales, b.LengthScales) &&
		eq(a.Zs, b.Zs) && eq(a.Kmm, b.Kmm) && eq(a.A, b.A) && eq(a.B, b.B) &&
		eq(a.KmmFactor, b.KmmFactor) && eq(a.SigFactor, b.SigFactor)
}

// TestCheckpointSurvivesRuntimeReconfig checks that runtime-mutable state
// (weights, constraints) rides in the checkpoint, not the caller Options.
func TestCheckpointSurvivesRuntimeReconfig(t *testing.T) {
	opts := testOptions()
	opts.DecomposedCost = true
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 6)
	if err := a.SetWeights(CostWeights{Delta1: 5e-3, Delta2: 2e-2}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetConstraints(Constraints{MaxDelay: 0.5, MinMAP: 0.4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore with the ORIGINAL options: the checkpointed runtime values
	// must win.
	b, err := LoadCheckpoint(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Weights() != (CostWeights{Delta1: 5e-3, Delta2: 2e-2}) {
		t.Fatalf("restored weights %+v", b.Weights())
	}
	if b.Constraints() != (Constraints{MaxDelay: 0.5, MinMAP: 0.4}) {
		t.Fatalf("restored constraints %+v", b.Constraints())
	}
}

func TestLoadCheckpointRejectsMismatchedConfig(t *testing.T) {
	opts := testOptions()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 4)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"grid", func(o *Options) { o.Grid.Levels = 4 }},
		{"safe beta", func(o *Options) { o.SafeBeta = 3 }},
		{"acq beta", func(o *Options) { o.AcqBeta = 1.5 }},
		{"acquisition", func(o *Options) { o.Rule = AcquisitionSafeOpt }},
		{"safe set toggle", func(o *Options) { o.DisableSafeSet = true }},
		{"decomposed toggle", func(o *Options) { o.DecomposedCost = true }},
		{"normalization", func(o *Options) { o.Norm = DefaultNormalization(CostWeights{Delta1: 1, Delta2: 1}) }},
		{"safe seed", func(o *Options) {
			o.SafeSeed = []Control{{Resolution: 0.2, Airtime: 1, GPUSpeed: 1, MCS: 1}}
		}},
		{"noise", func(o *Options) { o.NoiseVars = [3]float64{1e-4, 2e-2, 6e-2} }},
		{"length scales", func(o *Options) {
			ls := make([]float64, ContextDims+ControlDims)
			for i := range ls {
				ls[i] = 1.5
			}
			o.LengthScales = ls
		}},
		{"kernel family", func(o *Options) { o.KernelFactory = gp.RBFFactory }},
		{"weights (joint mode)", func(o *Options) {
			o.Weights = CostWeights{Delta1: 2e-3, Delta2: 2e-2}
			// Pin the normalization so only the weight check can trip:
			// otherwise DefaultNormalization(weights) trips the Norm check
			// first.
			o.Norm = DefaultNormalization(testOptions().Weights)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := testOptions()
			tc.mut(&bad)
			_, err := LoadCheckpoint(bytes.NewReader(data), bad)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
			}
		})
	}
}

func TestReadCheckpointInfo(t *testing.T) {
	opts := testOptions()
	opts.DecomposedCost = true
	opts.Telemetry = telemetry.NewRegistry()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 5)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadCheckpointInfo(&buf)
	if err != nil {
		t.Fatalf("ReadCheckpointInfo: %v", err)
	}
	if info.Version != checkpoint.Version {
		t.Errorf("Version = %d", info.Version)
	}
	if info.Periods != 5 {
		t.Errorf("Periods = %d, want 5", info.Periods)
	}
	if !info.DecomposedCost {
		t.Error("DecomposedCost = false")
	}
	want := map[string]int{"cost": 0, "delay": 5, "map": 5, "server_power": 5, "bs_power": 5}
	if len(info.Objectives) != len(want) {
		t.Fatalf("Objectives = %+v", info.Objectives)
	}
	for _, o := range info.Objectives {
		if n, ok := want[o.Name]; !ok || n != o.Observations {
			t.Errorf("objective %q has %d observations, want %d", o.Name, o.Observations, want[o.Name])
		}
	}
}

func TestCheckpointTelemetry(t *testing.T) {
	opts := testOptions()
	opts.Telemetry = telemetry.NewRegistry()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 3)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Telemetry.Snapshot()
	if got := snap.Counters["edgebol_ckpt_saves_total"]; got != 1 {
		t.Errorf("edgebol_ckpt_saves_total = %d, want 1", got)
	}
	if got := snap.Counters["edgebol_ckpt_restores_total"]; got != 1 {
		t.Errorf("edgebol_ckpt_restores_total = %d, want 1", got)
	}
	if got := snap.Gauges["edgebol_ckpt_bytes"]; got <= 0 {
		t.Errorf("edgebol_ckpt_bytes = %v, want > 0", got)
	}
	if got := snap.Gauges["edgebol_ckpt_restore_bytes"]; got <= 0 {
		t.Errorf("edgebol_ckpt_restore_bytes = %v, want > 0", got)
	}
	if h, ok := snap.Histograms["edgebol_ckpt_save_seconds"]; !ok || h.Count != 1 {
		t.Errorf("edgebol_ckpt_save_seconds histogram = %+v", h)
	}
	if h, ok := snap.Histograms["edgebol_ckpt_restore_seconds"]; !ok || h.Count != 1 {
		t.Errorf("edgebol_ckpt_restore_seconds histogram = %+v", h)
	}
}

func TestLoadCheckpointRejectsUnknownCriticalSection(t *testing.T) {
	opts := testOptions()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	arch, err := checkpoint.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// A future-critical section must reject; the same payload under an
	// ancillary tag must be skipped.
	withExtra := func(tag string) []byte {
		var out bytes.Buffer
		secs := append(append([]checkpoint.Section(nil), arch.Sections...),
			checkpoint.Section{Tag: tag, Data: []byte("future state")})
		if err := checkpoint.Encode(&out, secs); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if _, err := LoadCheckpoint(bytes.NewReader(withExtra("ZZZZ")), opts); err == nil {
		t.Fatal("unknown critical section accepted")
	}
	// "safe" is the ancillary safe-set section that older writers emitted;
	// their checkpoints must still load.
	for _, tag := range []string{"zzzz", "safe"} {
		if _, err := LoadCheckpoint(bytes.NewReader(withExtra(tag)), opts); err != nil {
			t.Fatalf("unknown ancillary section %q rejected: %v", tag, err)
		}
	}
}

// TestNewAgentRejectsUnsupportedKernel: a kernel the sweep plan cannot
// factorize has no selection path, so construction fails with
// gp.ErrUnsupportedKernel.
func TestNewAgentRejectsUnsupportedKernel(t *testing.T) {
	opts := testOptions()
	opts.KernelFactory = wrappedFactory
	if _, err := NewAgent(opts); !errors.Is(err, gp.ErrUnsupportedKernel) {
		t.Fatalf("err = %v, want gp.ErrUnsupportedKernel", err)
	}
}
