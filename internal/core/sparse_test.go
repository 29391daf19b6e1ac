package core

import (
	"bytes"
	"errors"
	"testing"
)

func TestEngineSelectorString(t *testing.T) {
	cases := map[EngineSelector]string{
		EngineExact:  "exact",
		EngineSparse: "sparse",
	}
	for sel, want := range cases {
		if got := sel.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", sel, got, want)
		}
	}
}

func TestEngineOptionValidation(t *testing.T) {
	opts := testOptions()
	opts.Engine = EngineSelector(7)
	if _, err := NewAgent(opts); err == nil {
		t.Fatal("unknown engine selector accepted")
	}
	opts = testOptions()
	opts.InducingPoints = -1
	if _, err := NewAgent(opts); err == nil {
		t.Fatal("negative inducing budget accepted")
	}
	opts = testOptions()
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.opts.InducingPoints != 128 {
		t.Fatalf("default inducing budget %d, want 128", a.opts.InducingPoints)
	}
	if a.EngineActive() != "exact" {
		t.Fatalf("default engine %q, want exact", a.EngineActive())
	}
}

func TestSparseAgentRunsSparseFromStart(t *testing.T) {
	opts := testOptions()
	opts.Engine = EngineSparse
	opts.InducingPoints = 16
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.EngineActive() != "sparse" {
		t.Fatalf("engine %q, want sparse", a.EngineActive())
	}
	runPeriods(t, a, 0, 30)
	for _, o := range a.objs {
		if !o.gp.IsSparse() {
			t.Fatalf("%s GP not sparse", objectiveNames[o.id])
		}
		if o.gp.InducingLen() > 16 {
			t.Fatalf("%s GP basis %d exceeds budget 16", objectiveNames[o.id], o.gp.InducingLen())
		}
	}
	if n := a.learned(gpDelay).Len(); n != 30 {
		t.Fatalf("history %d, want 30", n)
	}
}

// TestSparseSelectionRegret is the selection-level equivalence bound: on
// a replayed deterministic trace, the sparse agent's realized cost and
// constraint behaviour must track the exact agent's. This is the metric
// that matters — posterior deltas are allowed to be larger than the
// regret they induce, since the acquisition only needs the argmin to
// survive the approximation.
func TestSparseSelectionRegret(t *testing.T) {
	const T = 80
	run := func(engine EngineSelector) (costs []float64, violations int) {
		opts := testOptions()
		opts.Engine = engine
		opts.InducingPoints = 32
		a, err := NewAgent(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < T; i++ {
			ctx := scriptContext(i)
			x, _ := a.SelectControl(ctx)
			k := scriptKPIs(i, x)
			if err := a.Observe(ctx, x, k); err != nil {
				t.Fatal(err)
			}
			costs = append(costs, opts.Weights.Cost(k))
			if k.Delay > opts.Constraints.MaxDelay {
				violations++
			}
		}
		return costs, violations
	}
	exactCosts, exactViol := run(EngineExact)
	sparseCosts, sparseViol := run(EngineSparse)

	// Compare steady-state average cost over the back half of the trace.
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	me := mean(exactCosts[T/2:])
	ms := mean(sparseCosts[T/2:])
	if regret := (ms - me) / me; regret > 0.10 {
		t.Fatalf("sparse steady-state cost regret %.1f%% exceeds 10%% (exact %.4f, sparse %.4f)", regret*100, me, ms)
	}
	// The sparse engine must not buy its speed with safety: violation
	// counts stay in the same ballpark.
	if sparseViol > exactViol+T/10 {
		t.Fatalf("sparse violations %d vs exact %d", sparseViol, exactViol)
	}
}

func TestCheckpointRejectsEngineMismatch(t *testing.T) {
	save := func(opts Options, periods int) []byte {
		a, err := NewAgent(opts)
		if err != nil {
			t.Fatal(err)
		}
		runPeriods(t, a, 0, periods)
		var buf bytes.Buffer
		if err := a.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	sparseOpts := testOptions()
	sparseOpts.Engine = EngineSparse
	sparseOpts.InducingPoints = 16
	sparseCkpt := save(sparseOpts, 4)

	exactCkpt := save(testOptions(), 4)

	// Selector mismatch, both directions.
	if _, err := LoadCheckpoint(bytes.NewReader(sparseCkpt), testOptions()); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("sparse checkpoint into exact agent: %v", err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader(exactCkpt), sparseOpts); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("exact checkpoint into sparse agent: %v", err)
	}
	// Same selector, different basis budget.
	other := sparseOpts
	other.InducingPoints = 32
	if _, err := LoadCheckpoint(bytes.NewReader(sparseCkpt), other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("differing inducing budgets: %v", err)
	}
	// Matching configuration restores fine.
	if _, err := LoadCheckpoint(bytes.NewReader(sparseCkpt), sparseOpts); err != nil {
		t.Fatalf("matching sparse restore failed: %v", err)
	}
}

func TestReadCheckpointInfoReportsEngine(t *testing.T) {
	opts := testOptions()
	opts.Engine = EngineSparse
	opts.InducingPoints = 16
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 8)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadCheckpointInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Engine != "sparse" || info.InducingPoints != 16 {
		t.Fatalf("info engine=%q inducing=%d, want sparse/16", info.Engine, info.InducingPoints)
	}
	if info.Periods != 8 {
		t.Fatalf("info periods %d, want 8", info.Periods)
	}
	for _, obj := range info.Objectives {
		if obj.Engine != "sparse" {
			t.Fatalf("objective %s engine %q, want sparse", obj.Name, obj.Engine)
		}
		if obj.InducingPoints <= 0 || obj.InducingPoints > 16 {
			t.Fatalf("objective %s inducing %d outside (0,16]", obj.Name, obj.InducingPoints)
		}
		if obj.Observations != 8 {
			t.Fatalf("objective %s observations %d, want 8", obj.Name, obj.Observations)
		}
	}
}
