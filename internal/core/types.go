// Package core implements EdgeBOL (Ayala-Romero et al., CoNEXT '21): the
// contextual safe Bayesian online-learning controller that jointly
// configures the radio access network and the edge AI service to minimize
// energy cost under service-level constraints.
//
// The package defines the problem's vocabulary — contexts, controls, KPIs,
// constraints, cost — plus the discrete control grid of §6.1 and the online
// algorithm of §5 (Algorithm 1): Gaussian-process posteriors per objective,
// the safe set of eq. 8, and the constrained LCB acquisition of eq. 9.
package core

import (
	"fmt"
	"math"

	"repro/internal/ran"
)

// Control is the joint control policy x = [η, a, γ, m, ς] of §4.2 extended
// with the DNN split point of the split-inference workload, with every
// component normalized:
//
//   - Resolution η: average image resolution as a fraction of 640×480 pixels.
//   - Airtime a: uplink duty-cycle cap.
//   - GPUSpeed γ: GPU power-limit position between the driver's min and max.
//   - MCS m: max-MCS cap position; MCSCap() maps it to an integer index.
//   - SplitLayer ς: position of the device/edge DNN partition boundary in
//     [0, 1] — the fraction of the network executed on the device before the
//     intermediate activation is shipped uplink (Bayes-Split-Edge). 0 keeps
//     the whole DNN on the edge (the paper's original workload, and the
//     zero-value default), 1 runs it entirely on the device.
type Control struct {
	Resolution float64
	Airtime    float64
	GPUSpeed   float64
	MCS        float64
	SplitLayer float64
}

// MCSCap returns the integer MCS cap encoded by the normalized MCS policy.
func (c Control) MCSCap() int {
	m := int(math.Round(c.MCS * ran.MaxMCS))
	if m < 0 {
		m = 0
	}
	if m > ran.MaxMCS {
		m = ran.MaxMCS
	}
	return m
}

// Validate reports whether the control lies in its domain.
func (c Control) Validate() error {
	if c.Resolution <= 0 || c.Resolution > 1 || math.IsNaN(c.Resolution) {
		return fmt.Errorf("core: resolution %v outside (0,1]", c.Resolution)
	}
	if c.Airtime <= 0 || c.Airtime > 1 || math.IsNaN(c.Airtime) {
		return fmt.Errorf("core: airtime %v outside (0,1]", c.Airtime)
	}
	if c.GPUSpeed < 0 || c.GPUSpeed > 1 || math.IsNaN(c.GPUSpeed) {
		return fmt.Errorf("core: GPU speed %v outside [0,1]", c.GPUSpeed)
	}
	if c.MCS < 0 || c.MCS > 1 || math.IsNaN(c.MCS) {
		return fmt.Errorf("core: MCS policy %v outside [0,1]", c.MCS)
	}
	if c.SplitLayer < 0 || c.SplitLayer > 1 || math.IsNaN(c.SplitLayer) {
		return fmt.Errorf("core: split layer %v outside [0,1]", c.SplitLayer)
	}
	return nil
}

// appendFeatures appends the control's normalized GP features to dst.
func (c Control) appendFeatures(dst []float64) []float64 {
	return append(dst, c.Resolution, c.Airtime, c.GPUSpeed, c.MCS, c.SplitLayer)
}

// ControlDims is the dimensionality of the control space.
const ControlDims = 5

// Context is the slice state c = [n, mean CQI, var CQI] of §4.2: the number
// of users plus aggregate uplink channel-quality statistics. Aggregating
// per-user CQIs keeps the GP input dimension constant regardless of the
// user count (§4.4).
type Context struct {
	NumUsers int
	MeanCQI  float64
	VarCQI   float64
}

// Validate reports whether the context lies in its domain: a
// non-negative user count, a mean CQI in [0, ran.MaxCQI], and a finite,
// non-negative CQI variance.
func (c Context) Validate() error {
	if c.NumUsers < 0 {
		return fmt.Errorf("core: negative user count %d", c.NumUsers)
	}
	if c.MeanCQI < 0 || c.MeanCQI > ran.MaxCQI || math.IsNaN(c.MeanCQI) {
		return fmt.Errorf("core: mean CQI %v outside [0,%d]", c.MeanCQI, ran.MaxCQI)
	}
	if c.VarCQI < 0 || math.IsNaN(c.VarCQI) || math.IsInf(c.VarCQI, 0) {
		return fmt.Errorf("core: CQI variance %v not finite and non-negative", c.VarCQI)
	}
	return nil
}

// ContextDims is the dimensionality of the context features.
const ContextDims = 3

// maxUsersNorm normalizes the user count; the prototype was limited to
// fewer than 7 users (§6.4).
const maxUsersNorm = 8

// maxVarCQINorm normalizes the CQI variance feature.
const maxVarCQINorm = 12

// appendFeatures appends the context's normalized GP features to dst.
func (c Context) appendFeatures(dst []float64) []float64 {
	return append(dst,
		float64(c.NumUsers)/maxUsersNorm,
		c.MeanCQI/ran.MaxCQI,
		math.Min(c.VarCQI, maxVarCQINorm)/maxVarCQINorm,
	)
}

// Features returns the normalized joint feature vector z = (c, x) ∈ Z used
// as GP input (dimension ContextDims + ControlDims).
func Features(ctx Context, x Control) []float64 {
	dst := make([]float64, 0, ContextDims+ControlDims)
	return x.appendFeatures(ctx.appendFeatures(dst))
}

// ContextFeatures returns just the normalized context features, used by
// baselines whose policies map contexts to actions directly.
func ContextFeatures(ctx Context) []float64 {
	return ctx.appendFeatures(make([]float64, 0, ContextDims))
}

// ControlFeatures returns just the normalized control features.
func ControlFeatures(x Control) []float64 {
	return x.appendFeatures(make([]float64, 0, ControlDims))
}

// KPIs are the per-period performance-indicator observations of §4.2.
type KPIs struct {
	// Delay is the worst per-user end-to-end service delay in seconds
	// (Performance Indicator 1, d = max_i D_i).
	Delay float64
	// GPUDelay is the GPU-side portion of the delay (Fig. 3 bottom).
	GPUDelay float64
	// MAP is the lowest per-user mean average precision (PI 2, ρ = min_i Q_i).
	MAP float64
	// ServerPower is the edge server draw in watts (PI 3).
	ServerPower float64
	// BSPower is the baseband draw in watts (PI 4).
	BSPower float64
}

// Validate reports whether the KPIs are physical: delays and powers
// finite and non-negative, and mAP in [0,1].
func (k KPIs) Validate() error {
	for _, v := range [...]float64{k.Delay, k.GPUDelay, k.ServerPower, k.BSPower} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: KPIs %+v: delays and powers must be finite and non-negative", k)
		}
	}
	if k.MAP < 0 || k.MAP > 1 || math.IsNaN(k.MAP) {
		return fmt.Errorf("core: mAP %v outside [0,1]", k.MAP)
	}
	return nil
}

// CostWeights are the monetary energy prices δ₁ (server) and δ₂ (vBS) of
// eq. 1, in monetary units per watt.
type CostWeights struct {
	Delta1, Delta2 float64
}

// Cost evaluates the scalar cost u = δ₁·p_s + δ₂·p_b (eq. 1).
func (w CostWeights) Cost(k KPIs) float64 {
	return w.Delta1*k.ServerPower + w.Delta2*k.BSPower
}

// Validate reports whether the prices are usable: finite, non-negative,
// and not both zero.
func (w CostWeights) Validate() error {
	if e := w.invalid(); e != nil {
		return fmt.Errorf("core: cost weights %+v: %s %s", w, e.Field, e.Reason)
	}
	return nil
}

// invalid returns the first field Validate rejects, in the form
// SetWeights reports it, or nil.
func (w CostWeights) invalid() *ErrInvalidReconfig {
	if w.Delta1 < 0 || !finite(w.Delta1) {
		return &ErrInvalidReconfig{Field: "Weights.Delta1", Value: w.Delta1, Reason: "must be finite and non-negative"}
	}
	if w.Delta2 < 0 || !finite(w.Delta2) {
		return &ErrInvalidReconfig{Field: "Weights.Delta2", Value: w.Delta2, Reason: "must be finite and non-negative"}
	}
	if w.Delta1 == 0 && w.Delta2 == 0 {
		return &ErrInvalidReconfig{Field: "Weights", Value: w, Reason: "at least one price must be positive"}
	}
	return nil
}

// Constraints are the service-level requirements of eq. 2: a maximum
// service delay and a minimum mAP.
type Constraints struct {
	MaxDelay float64 // d^max in seconds
	MinMAP   float64 // ρ^min in [0,1]
}

// Validate reports whether the constraints are well-formed: a positive
// maximum delay and a minimum mAP in [0,1].
func (c Constraints) Validate() error {
	if e := c.invalid(); e != nil {
		return fmt.Errorf("core: constraints %+v: %s %s", c, e.Field, e.Reason)
	}
	return nil
}

// invalid returns the first field Validate rejects, in the form
// SetConstraints reports it, or nil.
func (c Constraints) invalid() *ErrInvalidReconfig {
	if c.MaxDelay <= 0 || math.IsNaN(c.MaxDelay) {
		return &ErrInvalidReconfig{Field: "Constraints.MaxDelay", Value: c.MaxDelay, Reason: "must be positive"}
	}
	if c.MinMAP < 0 || c.MinMAP > 1 || math.IsNaN(c.MinMAP) {
		return &ErrInvalidReconfig{Field: "Constraints.MinMAP", Value: c.MinMAP, Reason: "outside [0,1]"}
	}
	return nil
}

// Satisfied reports whether the KPIs meet the constraints.
func (c Constraints) Satisfied(k KPIs) bool {
	return k.Delay <= c.MaxDelay && k.MAP >= c.MinMAP
}

// Environment is the data plane EdgeBOL drives: it exposes the current
// context and executes one control period with a given policy, returning
// the (noisy) KPI observations. The testbed package provides the simulated
// prototype; the oran package drives it across real loopback interfaces.
type Environment interface {
	// Context returns the context for the upcoming period.
	Context() Context
	// Measure applies the control for one period and returns observed KPIs.
	Measure(Control) (KPIs, error)
}
