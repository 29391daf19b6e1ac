package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func f64bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func controlBitsEq(a, b Control) bool {
	x, y := controlDimValues(a), controlDimValues(b)
	for d := range x {
		if !f64bitsEq(x[d], y[d]) {
			return false
		}
	}
	return true
}

// acqKPIs extends the deterministic checkpoint-test environment with a
// split-layer response, so grids carrying the fifth dimension don't
// collapse into posterior ties along it: pushing inference onto the
// device raises delay, costs a little accuracy (early-exit style), and
// saves radio power.
func acqKPIs(t int, x Control) KPIs {
	k := scriptKPIs(t, x)
	k.Delay += 0.12 * x.SplitLayer
	k.MAP -= 0.015 * x.SplitLayer
	k.BSPower -= 0.8 * x.SplitLayer
	return k
}

// runAcqPeriods drives an agent through [from, to) scripted periods with
// the split-aware environment, observing its own selections.
func runAcqPeriods(t *testing.T, a *Agent, from, to int) []stepResult {
	t.Helper()
	out := make([]stepResult, 0, to-from)
	for i := from; i < to; i++ {
		ctx := scriptContext(i)
		x, info := a.SelectControl(ctx)
		if err := a.Observe(ctx, x, acqKPIs(i, x)); err != nil {
			t.Fatalf("period %d: Observe: %v", i, err)
		}
		out = append(out, stepResult{x: x, info: info})
	}
	return out
}

// TestGridNonUniformProperties pins the per-dimension-level-count grid
// algebra the adaptive engine navigates by index arithmetic alone:
// At(i) ≡ Enumerate()[i] bitwise, Index inverts Enumerate, Nearest lands
// bitwise on the Enumerate entry at Index(x), and LevelValues agrees with
// both in length and endpoints.
func TestGridNonUniformProperties(t *testing.T) {
	specs := []GridSpec{
		{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1,
			LevelsPerDim: [ControlDims]int{3, 31, 5, 11, 1}},
		{Levels: 4, MinResolution: 0.15, MinAirtime: 0.2,
			LevelsPerDim: [ControlDims]int{3, 5, 2, 4, 3}},
		{Levels: 2, MinResolution: 0.3, MinAirtime: 0.4,
			LevelsPerDim: [ControlDims]int{1, 1, 1, 1, 8}},
		{Levels: 11, MinResolution: 0.1, MinAirtime: 0.1}, // the paper's grid
	}
	for si, g := range specs {
		t.Run(fmt.Sprintf("spec=%d", si), func(t *testing.T) {
			levels, err := g.LevelValues()
			if err != nil {
				t.Fatal(err)
			}
			wantSize := 1
			for d := 0; d < ControlDims; d++ {
				wantSize *= len(levels[d])
				if len(levels[d]) != g.dimLevels(d) {
					t.Fatalf("dim %d: %d level values, want %d", d, len(levels[d]), g.dimLevels(d))
				}
				if !f64bitsEq(levels[d][0], g.dimLow(d)) {
					t.Fatalf("dim %d: low endpoint %v, want %v", d, levels[d][0], g.dimLow(d))
				}
				if n := len(levels[d]); n > 1 && !f64bitsEq(levels[d][n-1], 1) {
					t.Fatalf("dim %d: high endpoint %v, want 1", d, levels[d][n-1])
				}
			}
			if g.Size() != wantSize {
				t.Fatalf("Size() = %d, want %d", g.Size(), wantSize)
			}
			enum, err := g.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if len(enum) != wantSize {
				t.Fatalf("Enumerate returned %d controls, want %d", len(enum), wantSize)
			}
			for i, x := range enum {
				if at := g.At(i); !controlBitsEq(at, x) {
					t.Fatalf("At(%d) = %+v, Enumerate[%d] = %+v", i, at, i, x)
				}
				if gi := g.Index(x); gi != i {
					t.Fatalf("Index(Enumerate[%d]) = %d", i, gi)
				}
				if nx := g.Nearest(x); !controlBitsEq(nx, x) {
					t.Fatalf("Nearest of grid point %d moved: %+v -> %+v", i, x, nx)
				}
			}
			// Off-grid controls: Nearest must return exactly the Enumerate
			// entry at Index(x), bitwise — including out-of-range inputs.
			rng := rand.New(rand.NewSource(int64(41 + si)))
			for trial := 0; trial < 200; trial++ {
				x := Control{
					Resolution: -0.3 + 1.8*rng.Float64(),
					Airtime:    -0.3 + 1.8*rng.Float64(),
					GPUSpeed:   -0.3 + 1.8*rng.Float64(),
					MCS:        -0.3 + 1.8*rng.Float64(),
					SplitLayer: -0.3 + 1.8*rng.Float64(),
				}
				gi := g.Index(x)
				if gi < 0 || gi >= len(enum) {
					t.Fatalf("Index(%+v) = %d out of range", x, gi)
				}
				if nx := g.Nearest(x); !controlBitsEq(nx, enum[gi]) {
					t.Fatalf("Nearest(%+v) = %+v, Enumerate[Index] = %+v", x, nx, enum[gi])
				}
			}
		})
	}
}

// largeAcqGrid is above acqAutoThreshold (11·11·11·11·3 = 43 923) yet
// still small enough for the exhaustive oracle to sweep in a test.
func largeAcqGrid() GridSpec {
	return GridSpec{Levels: 11, MinResolution: 0.1, MinAirtime: 0.1,
		LevelsPerDim: [ControlDims]int{11, 11, 11, 11, 3}}
}

// TestAcqAdaptiveLargeGridRegret is the acq-equiv gate's budgeted-mode
// check: above acqAutoThreshold the adaptive engine must stay within its
// evaluation budget (a strict fraction of the grid) while holding bounded
// regret against the exhaustive optimum computed on an identically
// trained twin. Both agents observe the oracle's pick, so each period is
// a pure acquisition comparison on bitwise-equal posteriors.
func TestAcqAdaptiveLargeGridRegret(t *testing.T) {
	const T = 24
	opts := testOptions()
	opts.Grid = largeAcqGrid()
	optsE := opts
	optsE.Acquisition = AcqExhaustive
	optsA := opts
	optsA.Acquisition = AcqAuto // must resolve to adaptive above the threshold

	aE, err := NewAgent(optsE)
	if err != nil {
		t.Fatal(err)
	}
	aA, err := NewAgent(optsA)
	if err != nil {
		t.Fatal(err)
	}
	size := opts.Grid.Size()
	budget := minEvalBudget
	if s := size / maxEvalDivisor; s > budget {
		budget = s
	}

	var sumRegret, maxRegret float64
	scored, exact := 0, 0
	for i := 0; i < T; i++ {
		ctx := scriptContext(i)
		xE, infoE := aE.SelectControl(ctx)
		xA, infoA := aA.SelectControl(ctx)
		if !infoA.Adaptive {
			t.Fatal("auto agent did not resolve to the adaptive engine")
		}
		if infoA.CandidatesEvaluated <= 0 || infoA.CandidatesEvaluated > budget {
			t.Fatalf("period %d: evaluated %d candidates, budget %d", i, infoA.CandidatesEvaluated, budget)
		}
		if infoA.CandidatesEvaluated >= size/2 {
			t.Fatalf("period %d: evaluated %d of %d — not a budgeted search", i, infoA.CandidatesEvaluated, size)
		}
		if !infoE.FromSeed && !infoA.FromSeed {
			// Score the adaptive pick under the oracle's posterior buffers
			// (identical GP state; full coverage, so slot == grid index):
			// regret is its LCB gap to the optimum.
			gi := opts.Grid.Index(xA)
			lcbA := aE.acq.mu[gpCost][gi] - aE.opts.AcqBeta*aE.acq.sigma[gpCost][gi]
			regret := lcbA - infoE.LCB
			if regret < -1e-9 {
				t.Fatalf("period %d: adaptive LCB %v below exhaustive optimum %v", i, lcbA, infoE.LCB)
			}
			sumRegret += regret
			if regret > maxRegret {
				maxRegret = regret
			}
			scored++
			if controlBitsEq(xA, xE) {
				exact++
			}
		}
		k := acqKPIs(i, xE)
		if err := aE.Observe(ctx, xE, k); err != nil {
			t.Fatal(err)
		}
		if err := aA.Observe(ctx, xE, k); err != nil {
			t.Fatal(err)
		}
	}
	if scored == 0 {
		t.Fatal("no period left seed fallback; regret never scored")
	}
	mean := sumRegret / float64(scored)
	t.Logf("scored %d periods: exact %d, mean regret %.4g, max regret %.4g", scored, exact, mean, maxRegret)
	if mean > 0.1 {
		t.Errorf("mean regret %.4g exceeds 0.1 (normalized cost units)", mean)
	}
	if maxRegret > 1.0 {
		t.Errorf("max regret %.4g exceeds 1.0", maxRegret)
	}
	if exact*2 < scored {
		t.Errorf("adaptive matched the exhaustive argmax on only %d/%d scored periods", exact, scored)
	}
}

// TestAcqAutoResolution pins AcqAuto's engine choice and the option
// validation around it.
func TestAcqAutoResolution(t *testing.T) {
	small := testOptions()
	small.Acquisition = AcqAuto
	aS, err := NewAgent(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, info := aS.SelectControl(scriptContext(0)); info.Adaptive {
		t.Error("auto on a small grid must stay exhaustive")
	}

	large := testOptions()
	large.Grid = largeAcqGrid()
	aL, err := NewAgent(large) // zero value: AcqAuto
	if err != nil {
		t.Fatal(err)
	}
	if _, info := aL.SelectControl(scriptContext(0)); !info.Adaptive {
		t.Error("auto above acqAutoThreshold must go adaptive")
	}

	// SafeOpt has no adaptive implementation: auto stays exhaustive even
	// on large grids.
	safeopt := testOptions()
	safeopt.Grid = largeAcqGrid()
	safeopt.Rule = AcquisitionSafeOpt
	aO, err := NewAgent(safeopt)
	if err != nil {
		t.Fatal(err)
	}
	if _, info := aO.SelectControl(scriptContext(0)); info.Adaptive {
		t.Error("safeopt must not run the adaptive engine")
	}
	bad := testOptions()
	bad.Acquisition = AcquisitionMode(99)
	if _, err := NewAgent(bad); err == nil {
		t.Error("out-of-range AcquisitionMode should be rejected")
	}
}

// TestAcqAdaptiveCheckpointRestore extends the checkpoint tentpole to the
// adaptive engine: an auto (budgeted) run on a large grid must resume
// bitwise after a save/restore in the middle.
func TestAcqAdaptiveCheckpointRestore(t *testing.T) {
	cases := []struct {
		name    string
		periods int
		mut     func(*Options)
	}{
		{"auto large", 10, func(o *Options) { o.Grid = largeAcqGrid() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			tc.mut(&opts)
			straight, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			full := runAcqPeriods(t, straight, 0, tc.periods)

			interrupted, err := NewAgent(opts)
			if err != nil {
				t.Fatal(err)
			}
			half := tc.periods / 2
			assertSameSteps(t, runAcqPeriods(t, interrupted, 0, half), full[:half])
			var buf bytes.Buffer
			if err := interrupted.SaveCheckpoint(&buf); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			restored, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), opts)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			assertSameSteps(t, runAcqPeriods(t, restored, half, tc.periods), full[half:])
		})
	}
}

// TestAcqCheckpointMismatch covers the v3 fixed-config additions: the
// acquisition mode and the per-dimension level counts both ride in META
// and a restore under a different value must be refused.
func TestAcqCheckpointMismatch(t *testing.T) {
	opts := testOptions()
	opts.Grid.LevelsPerDim = [ControlDims]int{3, 4, 2, 3, 2}
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runAcqPeriods(t, a, 0, 4)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"explicit exhaustive", func(o *Options) { o.Acquisition = AcqExhaustive }},
		{"levels per dim", func(o *Options) {
			o.Grid.LevelsPerDim = [ControlDims]int{3, 4, 2, 3, 4}
		}},
		{"split collapsed", func(o *Options) {
			o.Grid.LevelsPerDim = [ControlDims]int{3, 4, 2, 3, 1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := opts
			tc.mut(&bad)
			if _, err := LoadCheckpoint(bytes.NewReader(data), bad); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
			}
		})
	}

	// A seed with a split component must round-trip through the widened
	// v3 seed record.
	seeded := testOptions()
	seeded.Grid.LevelsPerDim = [ControlDims]int{3, 3, 3, 3, 3}
	seeded.SafeSeed = []Control{{Resolution: 1, Airtime: 1, GPUSpeed: 1, MCS: 1, SplitLayer: 0.5}}
	b, err := NewAgent(seeded)
	if err != nil {
		t.Fatal(err)
	}
	runAcqPeriods(t, b, 0, 3)
	buf.Reset()
	if err := b.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), seeded); err != nil {
		t.Fatalf("seed with split component did not round-trip: %v", err)
	}
	dropped := seeded
	dropped.SafeSeed = []Control{{Resolution: 1, Airtime: 1, GPUSpeed: 1, MCS: 1}}
	if _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dropped); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("seed split component ignored on restore: err = %v", err)
	}
}

// TestAcqCheckpointInfo checks that ReadCheckpointInfo surfaces the
// configured acquisition mode without a full restore.
func TestAcqCheckpointInfo(t *testing.T) {
	opts := testOptions()
	opts.Acquisition = AcqExhaustive
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runAcqPeriods(t, a, 0, 3)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadCheckpointInfo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Acquisition != "exhaustive" {
		t.Errorf("Acquisition = %q, want %q", info.Acquisition, "exhaustive")
	}
}

// TestAcqTelemetry pins the acquisition counters: on the budgeted mode,
// candidates evaluated and refinement rounds sum the per-period
// SelectionInfo and stay below full coverage; the fallback counter is
// registered; the selection-latency histogram is labeled by mode.
func TestAcqTelemetry(t *testing.T) {
	opts := testOptions()
	opts.Grid = largeAcqGrid() // AcqAuto resolves to the budgeted mode
	opts.Telemetry = telemetry.NewRegistry()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	const T = 5
	var wantCand, wantRefine uint64
	for _, s := range runAcqPeriods(t, a, 0, T) {
		wantCand += uint64(s.info.CandidatesEvaluated)
		wantRefine += uint64(s.info.RefineRounds)
	}
	snap := opts.Telemetry.Snapshot()
	if got := snap.Counters["edgebol_acq_candidates_evaluated"]; got != wantCand || got >= uint64(T*opts.Grid.Size()) {
		t.Errorf("edgebol_acq_candidates_evaluated = %d, want %d, below full coverage %d", got, wantCand, T*opts.Grid.Size())
	}
	if got := snap.Counters["edgebol_acq_refine_rounds"]; got != wantRefine || got == 0 {
		t.Errorf("edgebol_acq_refine_rounds = %d, want %d and more than 0", got, wantRefine)
	}
	if _, ok := snap.Counters["edgebol_acq_fallback_total"]; !ok {
		t.Error("edgebol_acq_fallback_total not registered")
	}
	if h, ok := snap.Histograms["edgebol_core_sweep_seconds"]; !ok || h.Count != T {
		t.Errorf("adaptive latency histogram = %+v (present=%v), want count %d", h, ok, T)
	}
	if got := a.AcquisitionEngine(); got != "adaptive" {
		t.Errorf("AcquisitionEngine() = %q, want adaptive", got)
	}

	exh := testOptions()
	exh.Telemetry = telemetry.NewRegistry()
	b, err := NewAgent(exh)
	if err != nil {
		t.Fatal(err)
	}
	runAcqPeriods(t, b, 0, 3)
	snap = exh.Telemetry.Snapshot()
	if got := snap.Counters["edgebol_acq_candidates_evaluated"]; got != uint64(3*exh.Grid.Size()) {
		t.Errorf("exhaustive candidates counter = %d, want %d", got, 3*exh.Grid.Size())
	}
	if h, ok := snap.Histograms["edgebol_core_sweep_seconds"]; !ok || h.Count != 3 {
		t.Errorf("exhaustive latency histogram = %+v (present=%v), want count 3", h, ok)
	}
	if got := b.AcquisitionEngine(); got != "exhaustive" {
		t.Errorf("AcquisitionEngine() = %q, want exhaustive", got)
	}
}

// TestAcqWorkCounters pins the acquisition's work by count rather than by
// time, so the screen's saving is checked on any host: the kernel columns
// the sweep builds (edgebol_gp_sweep_columns_total, summed over the
// objectives) and the candidates that get a variance
// (SelectionInfo.VarianceSolves and edgebol_acq_variance_solves_total).
func TestAcqWorkCounters(t *testing.T) {
	run := func(t *testing.T, periods int, mut func(*Options)) (steps []stepResult, columns, solves uint64, size int) {
		t.Helper()
		opts := testOptions()
		opts.Telemetry = telemetry.NewRegistry()
		mut(&opts)
		a, err := NewAgent(opts)
		if err != nil {
			t.Fatal(err)
		}
		steps = runAcqPeriods(t, a, 0, periods)
		snap := opts.Telemetry.Snapshot()
		for key, v := range snap.Counters {
			if strings.HasPrefix(key, "edgebol_gp_sweep_columns_total{") {
				columns += v
			}
		}
		return steps, columns, snap.Counters["edgebol_acq_variance_solves_total"], opts.Grid.Size()
	}
	t.Run("shared kernel", func(t *testing.T) {
		const T = 5
		steps, columns, solves, size := run(t, T, func(o *Options) { o.DisableSafeSet = true })
		if columns != T*uint64(size) {
			t.Fatalf("built %d columns over %d periods of %d candidates, want one per candidate", columns, T, size)
		}
		for i, s := range steps {
			if s.info.VarianceSolves != s.info.CandidatesEvaluated {
				t.Fatalf("period %d: %d variance solves of %d candidates without the safe set",
					i, s.info.VarianceSolves, s.info.CandidatesEvaluated)
			}
		}
		if solves != T*uint64(size) {
			t.Fatalf("edgebol_acq_variance_solves_total = %d, want %d", solves, T*size)
		}
	})
	t.Run("per-objective kernels", func(t *testing.T) {
		const T = 5
		_, columns, _, size := run(t, T, func(o *Options) {
			o.DisableSafeSet = true
			for i := range o.LengthScalesPerGP {
				ls := make([]float64, ContextDims+ControlDims)
				for d := range ls {
					ls[d] = 0.6 + 0.5*float64(i)
				}
				o.LengthScalesPerGP[i] = ls
			}
		})
		if columns != 3*T*uint64(size) {
			t.Fatalf("built %d columns over %d periods of %d candidates, want three per candidate", columns, T, size)
		}
	})
	t.Run("screen", func(t *testing.T) {
		const T = 40
		// Constraints tight enough that, once learned, the means rule out
		// part of the grid in every scripted context.
		steps, columns, solves, size := run(t, T, func(o *Options) {
			o.Constraints = Constraints{MaxDelay: 0.5, MinMAP: 0.4}
		})
		var sum uint64
		for i, s := range steps {
			sum += uint64(s.info.VarianceSolves)
			if s.info.CandidatesEvaluated != size {
				t.Fatalf("period %d scored %d candidates, want the whole grid of %d", i, s.info.CandidatesEvaluated, size)
			}
			if i >= T-10 && s.info.VarianceSolves >= s.info.CandidatesEvaluated {
				t.Fatalf("period %d: %d variance solves of %d candidates: the screen dropped nothing",
					i, s.info.VarianceSolves, s.info.CandidatesEvaluated)
			}
		}
		if solves != sum {
			t.Fatalf("edgebol_acq_variance_solves_total = %d, the periods report %d", solves, sum)
		}
		if columns != T*uint64(size) {
			t.Fatalf("built %d columns over %d periods of %d candidates, want one per candidate", columns, T, size)
		}
	})
}
