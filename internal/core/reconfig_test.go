package core

import (
	"errors"
	"math"
	"testing"
)

func TestSetConstraintsTypedErrors(t *testing.T) {
	a, err := NewAgent(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	orig := a.Constraints()
	cases := []struct {
		name  string
		c     Constraints
		field string
	}{
		{"zero delay", Constraints{MaxDelay: 0, MinMAP: 0.3}, "Constraints.MaxDelay"},
		{"negative delay", Constraints{MaxDelay: -1, MinMAP: 0.3}, "Constraints.MaxDelay"},
		{"nan delay", Constraints{MaxDelay: math.NaN(), MinMAP: 0.3}, "Constraints.MaxDelay"},
		{"map above one", Constraints{MaxDelay: 0.5, MinMAP: 1.5}, "Constraints.MinMAP"},
		{"negative map", Constraints{MaxDelay: 0.5, MinMAP: -0.1}, "Constraints.MinMAP"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := a.SetConstraints(tc.c)
			var re *ErrInvalidReconfig
			if !errors.As(err, &re) {
				t.Fatalf("err = %v (%T), want *ErrInvalidReconfig", err, err)
			}
			if re.Field != tc.field {
				t.Errorf("Field = %q, want %q", re.Field, tc.field)
			}
			if a.Constraints() != orig {
				t.Error("failed reconfiguration mutated the agent")
			}
		})
	}
}

func TestSetWeightsTypedErrors(t *testing.T) {
	joint, err := NewAgent(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = joint.SetWeights(CostWeights{Delta1: 1, Delta2: 1})
	var re *ErrInvalidReconfig
	if !errors.As(err, &re) || re.Field != "Weights" {
		t.Fatalf("joint-mode SetWeights err = %v, want *ErrInvalidReconfig{Field: Weights}", err)
	}

	opts := testOptions()
	opts.DecomposedCost = true
	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	orig := a.Weights()
	cases := []struct {
		name  string
		w     CostWeights
		field string
	}{
		{"negative delta1", CostWeights{Delta1: -1, Delta2: 1}, "Weights.Delta1"},
		{"inf delta1", CostWeights{Delta1: math.Inf(1), Delta2: 1}, "Weights.Delta1"},
		{"nan delta2", CostWeights{Delta1: 1, Delta2: math.NaN()}, "Weights.Delta2"},
		{"all zero", CostWeights{}, "Weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := a.SetWeights(tc.w)
			var re *ErrInvalidReconfig
			if !errors.As(err, &re) {
				t.Fatalf("err = %v (%T), want *ErrInvalidReconfig", err, err)
			}
			if re.Field != tc.field {
				t.Errorf("Field = %q, want %q", re.Field, tc.field)
			}
			if a.Weights() != orig {
				t.Error("failed reconfiguration mutated the agent")
			}
		})
	}
}

// TestReconfigInvalidatesDerivedState is the satellite invariant: a
// successful reconfiguration must drop every piece of cached state that
// was computed under the old values — the safe-set mask and the last
// selection diagnostics — and the next selection must be indistinguishable
// from that of an agent configured with the new values all along (same
// observations, no stale sweep state).
func TestReconfigInvalidatesDerivedState(t *testing.T) {
	opts := testOptions()
	opts.DecomposedCost = true

	a, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	runPeriods(t, a, 0, 8)
	if a.lastInfo == (SelectionInfo{}) {
		t.Fatal("expected selection diagnostics before reconfig")
	}

	newCons := Constraints{MaxDelay: 0.45, MinMAP: 0.35}
	newW := CostWeights{Delta1: 4e-3, Delta2: 3e-2}
	if err := a.SetConstraints(newCons); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWeights(newW); err != nil {
		t.Fatal(err)
	}
	// Invalidation is observable immediately: no safe-set bit or cached
	// diagnostic survives the reconfiguration.
	for i, ok := range a.acq.safe {
		if ok {
			t.Fatalf("stale safe-set bit %d survived reconfiguration", i)
		}
	}
	if a.lastInfo != (SelectionInfo{}) {
		t.Fatalf("stale selection diagnostics survived reconfiguration: %+v", a.lastInfo)
	}

	// Replay the identical observation history into a fresh agent that had
	// the new weights/constraints from the start; the post-reconfig
	// selection must match it bitwise.
	fresh, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetConstraints(newCons); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetWeights(newW); err != nil {
		t.Fatal(err)
	}
	replay, err := NewAgent(opts)
	if err != nil {
		t.Fatal(err)
	}
	steps := runPeriods(t, replay, 0, 8)
	for i, s := range steps {
		ctx := scriptContext(i)
		if err := fresh.Observe(ctx, s.x, scriptKPIs(i, s.x)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := scriptContext(8)
	x1, info1 := a.SelectControl(ctx)
	x2, info2 := fresh.SelectControl(ctx)
	if x1 != x2 {
		t.Fatalf("post-reconfig control %+v, fresh-config control %+v", x1, x2)
	}
	if info1.LCB != info2.LCB || info1.SafeSetSize != info2.SafeSetSize ||
		info1.Cost != info2.Cost || info1.Delay != info2.Delay || info1.MAP != info2.MAP {
		t.Fatalf("post-reconfig info diverged:\n got %+v\nwant %+v", info1, info2)
	}
}
