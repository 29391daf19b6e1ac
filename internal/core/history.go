package core

import "fmt"

// HistorySample is one training observation in the agent's GP working
// units: the normalized joint (context, control) feature row plus the
// normalized targets of the three objective GPs. Histories are exported
// by Agent.History and replayed by Agent.SeedHistory — the currency of
// cross-cell observation pooling (a cold cell warm-started from its
// neighbors' histories, see internal/fleet).
type HistorySample struct {
	// Features is the normalized joint feature row z = (c, x), of length
	// ContextDims + ControlDims.
	Features []float64
	// Cost, Delay, MAP are the targets the cost, delay, and mAP GPs were
	// trained on, in normalized working units (Options.Norm applied).
	Cost, Delay, MAP float64
}

// History exports the agent's retained training history, oldest first.
// max > 0 caps the result to the most recent max samples; max <= 0
// exports everything the GPs retain (the full run under the sparse
// engine, the sliding window under a bounded exact engine).
//
// Decomposed-cost agents return nil: they learn no cost GP, and their
// per-sample power targets are not representable in a HistorySample, so
// an exported history would be unreplayable.
func (a *Agent) History(max int) []HistorySample {
	if a.opts.DecomposedCost {
		return nil
	}
	xs, costs := a.learned(gpCost).Training(max)
	_, delays := a.learned(gpDelay).Training(max)
	_, maps := a.learned(gpMAP).Training(max)
	n := len(costs)
	if len(delays) < n {
		n = len(delays)
	}
	if len(maps) < n {
		n = len(maps)
	}
	if n == 0 {
		return nil
	}
	const dims = ContextDims + ControlDims
	// The three GPs see identical add sequences (Observe feeds them in
	// lockstep), so their retained rows align. Bad input is rejected before
	// any append, but a factorization error inside one GP's append can
	// still leave another GP a row ahead, in which case the aligned common
	// tail is exported.
	out := make([]HistorySample, n)
	xOff := len(xs) - n*dims
	for i := 0; i < n; i++ {
		out[i] = HistorySample{
			Features: append([]float64(nil), xs[xOff+i*dims:xOff+(i+1)*dims]...),
			Cost:     costs[len(costs)-n+i],
			Delay:    delays[len(delays)-n+i],
			MAP:      maps[len(maps)-n+i],
		}
	}
	return out
}

// SeedHistory replays a pooled history into the agent's GPs, exactly as
// if the agent had lived those periods itself: each sample runs the same
// per-objective appends Observe performs, and the period counter
// advances. A warm-started agent is therefore bitwise identical —
// selections, posteriors, checkpoints — to a fresh agent that observed
// the pooled history directly; only process-local telemetry (which counts
// lived periods, not seeded ones) differs.
//
// Samples must be in the agent's own working units: features normalized
// by the standard Context/Control feature maps and targets by the same
// Options.Norm the donors ran under — pooling across agents with
// different normalizations or kernels would graft one model's data onto
// another's covariance, which is why fleet warm starts derive every cell
// agent from one Options template.
//
// Decomposed-cost agents reject seeding (they learn the power surfaces,
// not scalar costs). On a validation error the agent is unchanged; an append
// error mid-replay leaves the samples already replayed in place, like a
// mid-run Observe failure would.
func (a *Agent) SeedHistory(samples []HistorySample) error {
	if a.opts.DecomposedCost {
		return fmt.Errorf("core: cannot seed a decomposed-cost agent from a pooled history")
	}
	const dims = ContextDims + ControlDims
	for i, s := range samples {
		if len(s.Features) != dims {
			return fmt.Errorf("core: seed sample %d has %d features, want %d", i, len(s.Features), dims)
		}
		if err := checkFinite(s.Features, s.Cost, s.Delay, s.MAP); err != nil {
			return fmt.Errorf("core: seed sample %d has %w", i, err)
		}
	}
	for i, s := range samples {
		y := [numObjectives]float64{gpCost: s.Cost, gpDelay: s.Delay, gpMAP: s.MAP}
		for _, o := range a.objs {
			if err := o.gp.Add(s.Features, y[o.id]); err != nil {
				return fmt.Errorf("core: seed sample %d: %s GP: %w", i, objectiveNames[o.id], err)
			}
		}
		a.t++
	}
	a.met.trainSize.Set(float64(a.learned(gpDelay).Len()))
	return nil
}

// MaxObservations reports the agent's per-GP retained-history bound
// (Options.MaxObservations; 0 = unlimited). Warm starts cap pooled
// histories to it so seeding never exceeds what the agent would retain.
func (a *Agent) MaxObservations() int { return a.opts.MaxObservations }
