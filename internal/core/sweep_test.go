package core

import (
	"math"
	"testing"

	"repro/internal/gp"
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
// rows bitwise, for every objective the agent sweeps, across worker
// counts, cost decomposition, and sliding-window evictions.
func TestAgentSweepPlanMatchesGeneric(t *testing.T) {
	cases := []struct {
		name       string
		workers    int
		decomposed bool
		maxObs     int
	}{
		{"serial", 1, false, 0},
		{"autoworkers", 0, false, 0},
		{"workers4", 4, false, 0},
		{"decomposed", 1, true, 0},
		{"eviction", 4, false, 20},
		{"decomposed_eviction", 0, true, 20},
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
			})
			if err != nil {
				t.Fatal(err)
			}
			grid, err := a.opts.Grid.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			feats := make([][]float64, len(grid))
			requireGeneric := func(step int, name string, g *gp.GP, mu, sigma []float64) {
				t.Helper()
				for i, f := range feats {
					refMu, refSigma := g.Posterior(f)
					if !sameBits(mu[i], refMu) || !sameBits(sigma[i], refSigma) {
						t.Fatalf("step %d, %s GP, grid point %d: plan (%x, %x), Posterior (%x, %x)",
							step, name, i, mu[i], sigma[i], refMu, refSigma)
					}
				}
			}

			env := &quadEnv{}
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
				x, info := a.SelectControl(ctx)
				e := a.acq
				if tc.decomposed {
					for k, g := range a.powerGPs {
						requireGeneric(i, powerObjectiveNames[k], g, e.powMu[k], e.powSigma[k])
					}
				} else {
					requireGeneric(i, "cost", a.gps[gpCost], e.mu[gpCost], e.sigma[gpCost])
				}
				requireGeneric(i, "delay", a.gps[gpDelay], e.mu[gpDelay], e.sigma[gpDelay])
				requireGeneric(i, "map", a.gps[gpMAP], e.mu[gpMAP], e.sigma[gpMAP])
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
			if tc.maxObs > 0 && a.gps[gpDelay].Evictions() == 0 {
				t.Fatal("eviction case never evicted: the rebuild path went unexercised")
			}
		})
	}
}
