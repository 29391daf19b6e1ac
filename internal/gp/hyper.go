package gp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/telemetry"
)

// Hyperparams bundles the tunables of a GP model: per-dimension length
// scales and the observation-noise variance ζ². The paper (§5 "Kernel
// selection") fits these by maximizing the likelihood of prior data and then
// freezes them for the online run.
type Hyperparams struct {
	LengthScales []float64
	NoiseVar     float64
}

// FitOptions controls the random-search hyperparameter fit.
type FitOptions struct {
	// Iterations is the number of random candidates evaluated.
	Iterations int
	// LengthScaleMin/Max bound the log-uniform length-scale search.
	LengthScaleMin, LengthScaleMax float64
	// NoiseVarMin/Max bound the log-uniform noise search.
	NoiseVarMin, NoiseVarMax float64
	// Rand supplies randomness; required.
	Rand *rand.Rand
	// Telemetry optionally counts candidate evidence evaluations
	// (edgebol_gp_hyper_evals_total / edgebol_gp_hyper_failures_total);
	// nil disables.
	Telemetry *telemetry.Registry
}

// DefaultFitOptions returns bounds suited to inputs normalized to [0,1].
func DefaultFitOptions(rng *rand.Rand) FitOptions {
	return FitOptions{
		Iterations:     60,
		LengthScaleMin: 0.05,
		LengthScaleMax: 3.0,
		NoiseVarMin:    1e-6,
		NoiseVarMax:    1e-1,
		Rand:           rng,
	}
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("gp: log-uniform bounds must be positive, got [%g, %g]", lo, hi))
	}
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Fit searches hyperparameters of a kernel of the given family maximizing
// the log marginal likelihood of the prior dataset (xs, ys) via random
// search. It returns the best hyperparameters found and their likelihood.
//
// Random search is deliberate: the likelihood surface over a handful of
// length scales is cheap to probe, derivative-free search is robust to its
// multi-modality, and the paper freezes hyperparameters after this offline
// phase anyway.
func Fit(family Family, xs [][]float64, ys []float64, opts FitOptions) (Hyperparams, float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return Hyperparams{}, 0, fmt.Errorf("gp: Fit needs matching non-empty data, got %d inputs and %d targets", len(xs), len(ys))
	}
	if opts.Rand == nil {
		return Hyperparams{}, 0, fmt.Errorf("gp: FitOptions.Rand is required")
	}
	if opts.Iterations <= 0 {
		return Hyperparams{}, 0, fmt.Errorf("gp: FitOptions.Iterations must be positive")
	}
	for _, b := range []float64{opts.LengthScaleMin, opts.LengthScaleMax, opts.NoiseVarMin, opts.NoiseVarMax} {
		if !(b > 0) || math.IsInf(b, 1) {
			return Hyperparams{}, 0, fmt.Errorf("gp: FitOptions bounds must be finite and positive, got length scales [%g, %g] and noise variances [%g, %g]",
				opts.LengthScaleMin, opts.LengthScaleMax, opts.NoiseVarMin, opts.NoiseVarMax)
		}
	}
	dim := len(xs[0])
	best := Hyperparams{}
	bestLL := math.Inf(-1)
	evals := opts.Telemetry.Counter("edgebol_gp_hyper_evals_total")
	failures := opts.Telemetry.Counter("edgebol_gp_hyper_failures_total")
	for it := 0; it < opts.Iterations; it++ {
		ls := make([]float64, dim)
		for d := range ls {
			ls[d] = logUniform(opts.Rand, opts.LengthScaleMin, opts.LengthScaleMax)
		}
		noise := logUniform(opts.Rand, opts.NoiseVarMin, opts.NoiseVarMax)
		k, err := NewKernel(family, ls)
		if err != nil {
			return Hyperparams{}, 0, err
		}
		evals.Inc()
		ll, err := evidence(k, noise, xs, ys)
		if err != nil {
			failures.Inc()
			continue
		}
		if ll > bestLL {
			bestLL = ll
			best = Hyperparams{LengthScales: ls, NoiseVar: noise}
		}
	}
	if math.IsInf(bestLL, -1) {
		return Hyperparams{}, 0, fmt.Errorf("gp: hyperparameter search failed for all %d candidates", opts.Iterations)
	}
	return best, bestLL, nil
}

// evidence computes the log marginal likelihood of (xs, ys) under the given
// kernel and noise by fitting a throwaway GP in one batch factorization
// (NewFromData).
func evidence(k *Kernel, noiseVar float64, xs [][]float64, ys []float64) (float64, error) {
	g, err := NewFromData(k, noiseVar, 0, xs, ys)
	if err != nil {
		return 0, err
	}
	return g.LogMarginalLikelihood(), nil
}
