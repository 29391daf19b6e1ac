package core

import (
	"math"
	"testing"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func controlsBitwiseEqual(a, b Control) bool {
	return sameBits(a.Resolution, b.Resolution) && sameBits(a.Airtime, b.Airtime) &&
		sameBits(a.GPUSpeed, b.GPUSpeed) && sameBits(a.MCS, b.MCS)
}

func posteriorsBitwiseEqual(a, b Posterior) bool {
	return sameBits(a.Mean, b.Mean) && sameBits(a.Sigma, b.Sigma)
}

// TestAgentSweepPlanMatchesGeneric pins the agent-level contract of the grid
// sweep engine: every period, the posteriors the selection acts on — the
// acquisition's per-slot buffers, where full coverage makes slot == grid
// index — equal the generic gp.Posterior at the enumerated grid's feature
// rows bitwise, across worker counts, cost decomposition, and
// sliding-window evictions. The delay and mAP means, which the screen reads,
// are compared at every slot; the full (μ, σ) of every objective at every
// slot that got its variance solves. A slot got them exactly when it is a
// seed or passes the mean-only screen, recomputed here from Posterior's
// means — or everywhere when the safe set is off.
func TestAgentSweepPlanMatchesGeneric(t *testing.T) {
	cases := []struct {
		name       string
		workers    int
		decomposed bool
		maxObs     int
		noSafeSet  bool
	}{
		{"serial", 1, false, 0, false},
		{"autoworkers", 0, false, 0, false},
		{"workers4", 4, false, 0, false},
		{"decomposed", 1, true, 0, false},
		{"eviction", 4, false, 20, false},
		{"decomposed_eviction", 0, true, 20, false},
		{"no_safe_set", 4, false, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAgent(Options{
				Grid:             testGrid(),
				Weights:          CostWeights{Delta1: 1, Delta2: 1},
				Constraints:      Constraints{MaxDelay: 0.9, MinMAP: 0.3},
				Norm:             quadNorm(),
				NoiseVars:        [3]float64{1e-4, 1e-4, 1e-4},
				InferenceWorkers: tc.workers,
				DecomposedCost:   tc.decomposed,
				MaxObservations:  tc.maxObs,
				DisableSafeSet:   tc.noSafeSet,
			})
			if err != nil {
				t.Fatal(err)
			}
			grid, err := a.opts.Grid.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			seed := make([]bool, len(grid))
			for _, gi := range a.safeSeedIx {
				seed[gi] = true
			}
			feats := make([][]float64, len(grid))
			e := a.acq
			env := &quadEnv{}
			screened := 0
			const steps = 35
			for i := 0; i < steps; i++ {
				// Vary the context so the plans' per-period context partials
				// (not just the cached tables) are exercised.
				ctx := Context{
					NumUsers: 1 + i%3,
					MeanCQI:  10 + float64(i%5),
					VarCQI:   float64(i%4) / 2,
				}
				for j, x := range grid {
					feats[j] = Features(ctx, x)
				}
				// Slots the sweep leaves alone keep these NaNs.
				for _, o := range a.objs {
					for s := range grid {
						e.mu[o.id][s], e.sigma[o.id][s] = math.NaN(), math.NaN()
					}
				}
				x, info := a.SelectControl(ctx)
				zeta := math.Sqrt(a.learned(gpDelay).NoiseVar())
				solved := 0
				for s, f := range feats {
					muD, _ := a.learned(gpDelay).Posterior(f)
					muR, _ := a.learned(gpMAP).Posterior(f)
					want := tc.noSafeSet || seed[s] ||
						(muD+a.opts.SafeBeta*zeta <= e.dmaxN && muR >= e.rminN)
					got := !math.IsNaN(e.sigma[gpDelay][s])
					if got != want {
						t.Fatalf("step %d, grid point %d: variance solved %v, mean-only screen says %v", i, s, got, want)
					}
					if got {
						solved++
					}
					for _, o := range a.objs {
						refMu, refSigma := o.gp.Posterior(f)
						meanRead := o.id == gpDelay || o.id == gpMAP
						if (got || meanRead) && !sameBits(e.mu[o.id][s], refMu) {
							t.Fatalf("step %d, %s GP, grid point %d: plan mean %x, Posterior %x",
								i, objectiveNames[o.id], s, e.mu[o.id][s], refMu)
						}
						if got && !sameBits(e.sigma[o.id][s], refSigma) {
							t.Fatalf("step %d, %s GP, grid point %d: plan σ %x, Posterior %x",
								i, objectiveNames[o.id], s, e.sigma[o.id][s], refSigma)
						}
					}
				}
				if info.VarianceSolves != solved || info.CandidatesEvaluated != len(grid) {
					t.Fatalf("step %d: %d variance solves of %d candidates reported, %d of %d seen",
						i, info.VarianceSolves, info.CandidatesEvaluated, solved, len(grid))
				}
				screened += len(grid) - solved
				// The diagnostics report the winner's entries of those buffers.
				gi := a.opts.Grid.Index(x)
				if !controlsBitwiseEqual(x, grid[gi]) ||
					!posteriorsBitwiseEqual(info.Cost, Posterior{Mean: e.mu[gpCost][gi], Sigma: e.sigma[gpCost][gi]}) ||
					!posteriorsBitwiseEqual(info.Delay, Posterior{Mean: e.mu[gpDelay][gi], Sigma: e.sigma[gpDelay][gi]}) ||
					!posteriorsBitwiseEqual(info.MAP, Posterior{Mean: e.mu[gpMAP][gi], Sigma: e.sigma[gpMAP][gi]}) {
					t.Fatalf("step %d: diagnostics %+v do not match grid point %d", i, info, gi)
				}
				k, err := env.Measure(x)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Observe(ctx, x, k); err != nil {
					t.Fatal(err)
				}
			}
			if tc.maxObs > 0 && a.learned(gpDelay).Evictions() == 0 {
				t.Fatal("eviction case never evicted: the rebuild path went unexercised")
			}
			if (screened == 0) != tc.noSafeSet {
				t.Fatalf("%d slot-periods screened out: the screen went unexercised or ran with the safe set off", screened)
			}
		})
	}
}
