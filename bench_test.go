// Benchmarks regenerating every figure of the paper's evaluation plus the
// ablation studies called out in DESIGN.md. Each BenchmarkFigN measures one
// regeneration of the corresponding figure's data at reduced benchmark
// scale; cmd/figures produces the full tables (use -scale paper for the
// paper's exact settings).
//
// Ablation benches additionally report domain metrics (optimality gap,
// violation rate) via b.ReportMetric, so `go test -bench .` doubles as the
// design-choice evaluation harness.
package edgebol

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gp"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// benchScale keeps the per-iteration cost of figure benches manageable.
func benchScale() experiment.Scale {
	return experiment.Scale{
		GridLevels:      5,
		Periods:         40,
		Reps:            1,
		SweepLevels:     4,
		DynamicPeriods:  30,
		PhasePeriods:    25,
		Delta2s:         []float64{1, 8},
		TailWindow:      12,
		MaxObservations: 150,
	}
}

func benchTable(b *testing.B, fn func(experiment.Scale, int64) (*experiment.Table, error)) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		t, err := fn(scale, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1(b *testing.B) { benchTable(b, experiment.Fig1) }
func BenchmarkFig2(b *testing.B) { benchTable(b, experiment.Fig2) }
func BenchmarkFig3(b *testing.B) { benchTable(b, experiment.Fig3) }
func BenchmarkFig4(b *testing.B) { benchTable(b, experiment.Fig4) }
func BenchmarkFig5(b *testing.B) { benchTable(b, experiment.Fig5) }
func BenchmarkFig6(b *testing.B) { benchTable(b, experiment.Fig6) }
func BenchmarkFig9(b *testing.B) { benchTable(b, experiment.Fig9) }

func BenchmarkFig10And11(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		f10, f11, err := experiment.Fig10And11(scale, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(f10.Rows) == 0 || len(f11.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig12(b *testing.B) { benchTable(b, experiment.Fig12) }
func BenchmarkFig13(b *testing.B) { benchTable(b, experiment.Fig13) }
func BenchmarkFig14(b *testing.B) { benchTable(b, experiment.Fig14) }

// --- Ablations -----------------------------------------------------------

// runAblationAgent drives an agent on the standard single-user scenario
// and returns (median tail cost, violation count after burn-in).
func runAblationAgent(b *testing.B, opts core.Options, periods int, seed int64) (float64, int) {
	b.Helper()
	tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, seed)
	if err != nil {
		b.Fatal(err)
	}
	agent, err := core.NewAgent(opts)
	if err != nil {
		b.Fatal(err)
	}
	cons := opts.Constraints
	var tail []float64
	violations := 0
	for t := 0; t < periods; t++ {
		_, k, _, err := agent.Step(tb)
		if err != nil {
			b.Fatal(err)
		}
		if t >= periods/3 && !cons.Satisfied(k) {
			violations++
		}
		if t >= periods-15 {
			tail = append(tail, opts.Weights.Cost(k))
		}
	}
	return experiment.Median(tail), violations
}

func ablationOptions() core.Options {
	return core.Options{
		Grid:        core.GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1},
		Weights:     core.CostWeights{Delta1: 1, Delta2: 1},
		Constraints: core.Constraints{MaxDelay: 0.4, MinMAP: 0.5},
	}
}

// BenchmarkAblationSafeSet compares EdgeBOL with and without the eq. 8
// safety filter: the unconstrained LCB explores violating configurations.
func BenchmarkAblationSafeSet(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"safe", false}, {"unconstrained", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost float64
			var violations int
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.DisableSafeSet = mode.disable
				c, v := runAblationAgent(b, opts, 60, int64(i)+1)
				cost += c
				violations += v
			}
			b.ReportMetric(cost/float64(b.N), "tail-cost")
			b.ReportMetric(float64(violations)/float64(b.N), "violations")
		})
	}
}

// BenchmarkAblationKernel compares the paper's Matérn-3/2 against
// Matérn-5/2 and RBF.
func BenchmarkAblationKernel(b *testing.B) {
	for _, family := range []gp.Family{gp.Matern32, gp.Matern52, gp.RBF} {
		b.Run(family.String(), func(b *testing.B) {
			var cost float64
			var violations int
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.Kernel = family
				c, v := runAblationAgent(b, opts, 60, int64(i)+1)
				cost += c
				violations += v
			}
			b.ReportMetric(cost/float64(b.N), "tail-cost")
			b.ReportMetric(float64(violations)/float64(b.N), "violations")
		})
	}
}

// BenchmarkAblationBeta sweeps the exploration parameter around the
// paper's β^½ = 2.5.
func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{1.5, 2.5, 4.0} {
		b.Run(formatFloat(beta), func(b *testing.B) {
			var cost float64
			var violations int
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.SafeBeta = beta
				opts.AcqBeta = beta
				c, v := runAblationAgent(b, opts, 60, int64(i)+1)
				cost += c
				violations += v
			}
			b.ReportMetric(cost/float64(b.N), "tail-cost")
			b.ReportMetric(float64(violations)/float64(b.N), "violations")
		})
	}
}

// BenchmarkAblationWindow compares unbounded GP history against the
// sliding-window budget used for long runs.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{0, 60, 150} {
		b.Run(formatInt(window), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.MaxObservations = window
				c, _ := runAblationAgent(b, opts, 80, int64(i)+1)
				cost += c
			}
			b.ReportMetric(cost/float64(b.N), "tail-cost")
		})
	}
}

// BenchmarkAblationContext measures the value of the context features on
// the dynamic-channel scenario: a context-blind agent cannot transfer
// knowledge across channel states.
func BenchmarkAblationContext(b *testing.B) {
	run := func(b *testing.B, blind bool, seed int64) (float64, int) {
		tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, seed)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := ran.NewSNRTrace(5, 38, 12, 5, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			b.Fatal(err)
		}
		opts := ablationOptions()
		agent, err := core.NewAgent(opts)
		if err != nil {
			b.Fatal(err)
		}
		var cost float64
		violations := 0
		const periods = 60
		for t := 0; t < periods; t++ {
			tb.SetSNR(trace.Next())
			ctx := tb.Context()
			if blind {
				ctx = core.Context{NumUsers: 1, MeanCQI: 15} // frozen context
			}
			x, _ := agent.SelectControl(ctx)
			k, err := tb.Measure(x)
			if err != nil {
				b.Fatal(err)
			}
			if err := agent.Observe(ctx, x, k); err != nil {
				b.Fatal(err)
			}
			if t > periods/3 {
				cost += opts.Weights.Cost(k)
				if !opts.Constraints.Satisfied(k) {
					violations++
				}
			}
		}
		return cost / float64(periods-periods/3-1), violations
	}
	for _, mode := range []struct {
		name  string
		blind bool
	}{{"contextual", false}, {"context-blind", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost float64
			var violations int
			for i := 0; i < b.N; i++ {
				c, v := run(b, mode.blind, int64(i)+1)
				cost += c
				violations += v
			}
			b.ReportMetric(cost/float64(b.N), "mean-cost")
			b.ReportMetric(float64(violations)/float64(b.N), "violations")
		})
	}
}

// BenchmarkAblationAcquisition compares the paper's constrained LCB
// (eq. 9) against the SafeOpt-style uncertainty acquisition the authors
// rejected for its slow convergence.
func BenchmarkAblationAcquisition(b *testing.B) {
	for _, acq := range []struct {
		name string
		kind core.AcquisitionRule
	}{{"lcb", core.AcquisitionLCB}, {"safeopt", core.AcquisitionSafeOpt}} {
		b.Run(acq.name, func(b *testing.B) {
			var cost float64
			var violations int
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.Rule = acq.kind
				c, v := runAblationAgent(b, opts, 60, int64(i)+1)
				cost += c
				violations += v
			}
			b.ReportMetric(cost/float64(b.N), "tail-cost")
			b.ReportMetric(float64(violations)/float64(b.N), "violations")
		})
	}
}

// BenchmarkAblationCholesky compares the incremental rank-append update
// against full refactorization for the per-period GP update.
func BenchmarkAblationCholesky(b *testing.B) {
	const n = 150
	rng := rand.New(rand.NewSource(1))
	kern, err := gp.NewKernel(gp.Matern32, []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		b.Fatal(err)
	}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = float64(i)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := gp.New(kern, 1e-3, 0)
			for j, x := range xs {
				if err := g.Add(x, ys[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("refactorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Rebuild the full kernel matrix and factorize from scratch at
			// every step, the O(t³)-per-period alternative.
			for t := 1; t <= n; t++ {
				if _, err := gp.NewFromData(kern, 1e-3, 0, xs[:t], ys[:t]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationMACModel compares the closed-form scheduler abstraction
// used by the testbed against the TTI-level MAC simulation, reporting both
// the runtime gap and the modeling error.
func BenchmarkAblationMACModel(b *testing.B) {
	users := []ran.User{{SNRdB: 35}, {SNRdB: 28}}
	pol := ran.Policies{Airtime: 0.7, MCSCap: 18}
	const bits = 645e3
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			allocs, err := ran.Schedule(users, pol)
			if err != nil {
				b.Fatal(err)
			}
			_ = allocs[0].TxDelay(bits)
		}
	})
	b.Run("tti-sim", func(b *testing.B) {
		sim, err := ran.NewTTISim(0, nil)
		if err != nil {
			b.Fatal(err)
		}
		var maxErr float64
		for i := 0; i < b.N; i++ {
			got, err := sim.SimulateTransfers(users, pol, bits)
			if err != nil {
				b.Fatal(err)
			}
			allocs, err := ran.Schedule(users, pol)
			if err != nil {
				b.Fatal(err)
			}
			for u := range users {
				want := allocs[u].TxDelay(bits)
				if e := math.Abs(got[u]-want) / want; e > maxErr {
					maxErr = e
				}
			}
		}
		b.ReportMetric(maxErr*100, "model-error-%")
	})
}

// BenchmarkAblationDDPGVsEdgeBOL is the quantitative core of Fig. 14: the
// cumulative constraint-violation magnitude of both algorithms over a run
// with a constraint change in the middle.
func BenchmarkAblationDDPGVsEdgeBOL(b *testing.B) {
	grid := core.GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1}
	w := core.CostWeights{Delta1: 1, Delta2: 8}
	phase1 := core.Constraints{MaxDelay: 0.5, MinMAP: 0.4}
	phase2 := core.Constraints{MaxDelay: 0.4, MinMAP: 0.6}
	const phaseLen = 50

	run := func(b *testing.B, useDDPG bool, seed int64) float64 {
		tb, err := testbed.New(testbed.DefaultConfig(), []ran.User{{SNRdB: 35}}, seed)
		if err != nil {
			b.Fatal(err)
		}
		var agent *core.Agent
		var dd *bandit.DDPG
		if useDDPG {
			dd, err = bandit.NewDDPG(bandit.DDPGOptions{Grid: grid, Weights: w, Constraints: phase1, Seed: seed})
		} else {
			agent, err = core.NewAgent(core.Options{Grid: grid, Weights: w, Constraints: phase1})
		}
		if err != nil {
			b.Fatal(err)
		}
		var violation float64
		for _, cons := range []core.Constraints{phase1, phase2} {
			if useDDPG {
				if err := dd.SetConstraints(cons); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := agent.SetConstraints(cons); err != nil {
					b.Fatal(err)
				}
			}
			for t := 0; t < phaseLen; t++ {
				ctx := tb.Context()
				var x core.Control
				if useDDPG {
					x = dd.Select(ctx)
				} else {
					x, _ = agent.SelectControl(ctx)
				}
				k, err := tb.Measure(x)
				if err != nil {
					b.Fatal(err)
				}
				if useDDPG {
					dd.Observe(ctx, x, k)
				} else {
					if err := agent.Observe(ctx, x, k); err != nil {
						b.Fatal(err)
					}
				}
				violation += math.Max(k.Delay-cons.MaxDelay, 0) + math.Max(cons.MinMAP-k.MAP, 0)
			}
		}
		return violation
	}
	for _, mode := range []struct {
		name string
		ddpg bool
	}{{"edgebol", false}, {"ddpg", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var viol float64
			for i := 0; i < b.N; i++ {
				viol += run(b, mode.ddpg, int64(i)+1)
			}
			b.ReportMetric(viol/float64(b.N), "cum-violation")
		})
	}
}

func formatFloat(f float64) string {
	return "beta=" + strconv.FormatFloat(f, 'g', -1, 64)
}

func formatInt(i int) string {
	if i == 0 {
		return "unbounded"
	}
	return strconv.Itoa(i)
}
