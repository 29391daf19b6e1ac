package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// LongHorizonConfig parameterizes the long-horizon scenario: an EdgeBOL
// run one to two orders of magnitude past the paper's 150-period
// experiments, where the exact engine's O(t²)-per-candidate sweep would
// dominate each control period. It exists to demonstrate — and to let
// VerifyLongHorizon assert — that the sparse inducing-point engine holds
// the per-period acquisition cost flat out to t ≥ 10⁴ without giving up
// the learned operating point.
type LongHorizonConfig struct {
	// Periods is the horizon.
	Periods int
	// InducingPoints is the sparse engine's basis budget (0 takes the
	// core default, 128).
	InducingPoints int
	// Buckets is how many summary rows the table aggregates the horizon
	// into (default 50).
	Buckets int
}

// LongHorizon runs one sparse-engine EdgeBOL agent for cfg.Periods
// control periods on a steady 35 dB single-user testbed (the Fig. 9
// setting, δ₁ = 1, δ₂ = 8) and aggregates per-bucket means: realized
// cost, delay, mAP, the delay constraint violation rate, the acquisition
// sweep latency, and the inducing-basis size. The sweep-latency column
// stays flat in t, where the exact engine's would grow quadratically.
func LongHorizon(scale Scale, cfg LongHorizonConfig, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if cfg.Periods < 2 {
		return nil, fmt.Errorf("experiment: long horizon of %d periods", cfg.Periods)
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 50
	}
	if cfg.Buckets > cfg.Periods {
		cfg.Buckets = cfg.Periods
	}
	w := core.CostWeights{Delta1: 1, Delta2: 8}
	agent, err := core.NewAgent(core.Options{
		Grid:           scale.grid(),
		Weights:        w,
		Constraints:    fig9Constraints,
		Engine:         core.EngineSparse,
		InducingPoints: cfg.InducingPoints,
		// History is retained in full: the sparse engine's costs are
		// bounded by the inducing budget.
		Telemetry: scale.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	tb, err := scale.newTestbed(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "longhorizon",
		Title: "Long-horizon run: per-bucket cost, KPIs, sweep latency, engine state",
		Columns: []string{
			"t", "cost_mean", "delay_mean", "map_mean", "viol_rate",
			"sweep_ms_mean", "inducing",
		},
	}
	bucket := cfg.Periods / cfg.Buckets
	var cost, delay, mAP, sweepMs float64
	var viol, n int
	flush := func(end int) {
		if n == 0 {
			return
		}
		fn := float64(n)
		t.AddRow(float64(end), cost/fn, delay/fn, mAP/fn, float64(viol)/fn,
			sweepMs/fn, float64(agent.InducingPoints()))
		cost, delay, mAP, sweepMs, viol, n = 0, 0, 0, 0, 0, 0
	}
	for tt := 0; tt < cfg.Periods; tt++ {
		_, k, info, err := agent.Step(tb)
		if err != nil {
			return nil, fmt.Errorf("experiment: long horizon period %d: %w", tt, err)
		}
		cost += w.Cost(k)
		delay += k.Delay
		mAP += k.MAP
		sweepMs += info.SweepSeconds * 1e3
		if k.Delay > fig9Constraints.MaxDelay {
			viol++
		}
		n++
		if (tt+1)%bucket == 0 {
			flush(tt + 1)
		}
	}
	flush(cfg.Periods)
	return t, nil
}

// VerifyLongHorizon asserts the scenario's claims on a LongHorizon table:
// the agent converges (tail cost no worse than the early exploration
// phase), the delay constraint holds at the paper's few-percent violation
// level in steady state, the inducing basis respects its budget, and the
// acquisition latency in the final buckets stays within a constant factor
// of the first buckets' instead of growing with t.
func VerifyLongHorizon(t *Table, budget int) ([]Check, error) {
	if budget <= 0 {
		budget = 128
	}
	cost, err := column(t, "cost_mean", nil)
	if err != nil {
		return nil, err
	}
	viol, err := column(t, "viol_rate", nil)
	if err != nil {
		return nil, err
	}
	sweep, err := column(t, "sweep_ms_mean", nil)
	if err != nil {
		return nil, err
	}
	inducing, err := column(t, "inducing", nil)
	if err != nil {
		return nil, err
	}
	nb := len(cost)
	if nb < 4 {
		return nil, fmt.Errorf("experiment: long-horizon table has only %d buckets", nb)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	tail := nb / 4
	var checks []Check

	early, late := mean(cost[:tail]), mean(cost[nb-tail:])
	checks = append(checks, check("longhorizon", "steady-state cost no worse than exploration",
		late <= early*1.05, "late %.4f vs early %.4f", late, early))

	lateViol := mean(viol[nb-tail:])
	checks = append(checks, check("longhorizon", "tail delay violations at the paper's few-percent level",
		lateViol <= 0.10, "tail violation rate %.3f", lateViol))

	maxInd := 0.0
	for _, v := range inducing {
		if v > maxInd {
			maxInd = v
		}
	}
	checks = append(checks, check("longhorizon", "inducing basis within budget",
		maxInd <= float64(budget), "max basis %.0f > budget %d", maxInd, budget))

	// Wall-clock is noisy, so the gate is a generous constant factor —
	// exact growth over thousands of periods exceeds it by an order of
	// magnitude.
	start, end := mean(sweep[:tail]), mean(sweep[nb-tail:])
	checks = append(checks, check("longhorizon", "sparse sweep latency flat in t",
		end <= start*3+0.5, "end %.2f ms vs start %.2f ms", end, start))
	return checks, nil
}
