package core

import (
	"context"
	"errors"
	"testing"
)

// ctxEnv wraps quadEnv with a MeasureCtx that honors cancellation, the way
// the O-RAN environment does across the control plane.
type ctxEnv struct {
	quadEnv
	sawCtx bool
}

func (e *ctxEnv) MeasureCtx(ctx context.Context, x Control) (KPIs, error) {
	e.sawCtx = true
	if err := ctx.Err(); err != nil {
		return KPIs{}, err
	}
	return e.Measure(x)
}

func TestStepCtxCanceledBeforeStep(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 1.2, MinMAP: 0.2})
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := a.StepCtx(ctx, env); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a.Observations() != 0 {
		t.Fatal("a canceled step must not record an observation")
	}
}

func TestStepCtxUsesMeasureCtx(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 1.2, MinMAP: 0.2})
	env := &ctxEnv{quadEnv: quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}}
	if _, _, _, err := a.StepCtx(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if !env.sawCtx {
		t.Fatal("StepCtx must route through MeasureCtx when the environment implements it")
	}
	if a.Observations() != 1 {
		t.Fatalf("observations %d", a.Observations())
	}
}

func TestStepDelegatesToStepCtx(t *testing.T) {
	a := newTestAgent(t, Constraints{MaxDelay: 1.2, MinMAP: 0.2})
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 15}}
	if _, _, _, err := a.Step(env); err != nil {
		t.Fatal(err)
	}
	if a.Observations() != 1 {
		t.Fatalf("observations %d", a.Observations())
	}
}

// TestStepCtxRejectsInvalidContext: a context Observe would reject ends
// the period before selection, so no control is actuated for it.
func TestStepCtxRejectsInvalidContext(t *testing.T) {
	for _, c := range []Context{
		{NumUsers: -1, MeanCQI: 15},
		{NumUsers: 1, MeanCQI: 16},
	} {
		a := newTestAgent(t, Constraints{MaxDelay: 1.2, MinMAP: 0.2})
		env := &ctxEnv{quadEnv: quadEnv{ctx: c}}
		if _, _, _, err := a.StepCtx(context.Background(), env); err == nil {
			t.Fatalf("context %+v accepted", c)
		}
		if env.sawCtx {
			t.Fatalf("context %+v: a control was actuated", c)
		}
		if a.Observations() != 0 {
			t.Fatalf("context %+v: observations %d", c, a.Observations())
		}
	}
}
