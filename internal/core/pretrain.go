package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
)

// PretrainResult holds per-objective GP hyperparameters fitted offline, the
// §5 "Kernel selection" procedure: "the hyperparameters L(i) and noise
// variance ζ²(i) should be optimized for each function i before running
// the algorithm by maximizing the likelihood estimation over prior data.
// During execution, the hyperparameters shall remain constant."
type PretrainResult struct {
	// LengthScales are the fitted per-dimension kernel length scales for
	// the cost (0), delay (1), and mAP (2) surfaces.
	LengthScales [3][]float64
	// NoiseVars are the fitted observation-noise variances ζ²(i) over
	// normalized targets.
	NoiseVars [3]float64
	// LogLikelihoods are the achieved log marginal likelihoods.
	LogLikelihoods [3]float64
	// Samples is the prior-dataset size used.
	Samples int
}

// Apply installs the fitted hyperparameters into agent options.
func (r PretrainResult) Apply(o *Options) {
	r0 := r // copy to detach from the receiver
	o.LengthScalesPerGP = r0.LengthScales
	o.NoiseVars = r0.NoiseVars
}

// PretrainOptions configure the offline fitting phase.
type PretrainOptions struct {
	// Samples is the number of prior measurements collected with random
	// grid controls (default 80).
	Samples int
	// FitIterations is the random-search budget per objective (default 60).
	FitIterations int
	// Kernel is the covariance family fitted; the zero value is the
	// paper's Matérn-3/2.
	Kernel gp.Family
	// Norm maps raw KPIs to GP targets; zero-valued transforms default to
	// DefaultNormalization(weights).
	Norm Normalization
	// MinLengthScale floors the fitted length scales. Safe-set expansion
	// needs adjacent grid points strongly correlated, so the floor is tied
	// to the grid step by Pretrain (0 selects 8 steps); override only with
	// care.
	MinLengthScale float64
}

// Pretrain collects a prior dataset from the environment with uniformly
// random grid controls and fits per-objective hyperparameters by
// likelihood maximization. It is the offline phase the paper runs before
// deploying EdgeBOL; the returned result plugs into Options via Apply.
//
// Collecting the dataset *executes* the random controls on the
// environment, so — like the paper's pre-production phase — it should run
// before the service carries real users.
func Pretrain(env Environment, grid GridSpec, w CostWeights, opts PretrainOptions, seed int64) (PretrainResult, error) {
	if env == nil {
		return PretrainResult{}, fmt.Errorf("core: nil environment")
	}
	if err := grid.Validate(); err != nil {
		return PretrainResult{}, err
	}
	if opts.Samples == 0 {
		opts.Samples = 80
	}
	if opts.Samples < 8 {
		return PretrainResult{}, fmt.Errorf("core: %d pretraining samples too few", opts.Samples)
	}
	if opts.FitIterations == 0 {
		opts.FitIterations = 60
	}
	if opts.MinLengthScale < 0 || math.IsNaN(opts.MinLengthScale) {
		return PretrainResult{}, fmt.Errorf("core: minimum length scale %v must be positive (0 selects the default)", opts.MinLengthScale)
	}
	if err := opts.Norm.fill(w); err != nil {
		return PretrainResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Collect the prior dataset.
	xs := make([][]float64, 0, opts.Samples)
	var ys [3][]float64
	for i := 0; i < opts.Samples; i++ {
		x := grid.At(rng.Intn(grid.Size()))
		ctx := env.Context()
		k, err := env.Measure(x)
		if err != nil {
			return PretrainResult{}, fmt.Errorf("core: pretraining sample %d: %w", i, err)
		}
		xs = append(xs, Features(ctx, x))
		ys[gpCost] = append(ys[gpCost], opts.Norm.Cost.Norm(w.Cost(k)))
		ys[gpDelay] = append(ys[gpDelay], opts.Norm.Delay.Norm(k.Delay))
		ys[gpMAP] = append(ys[gpMAP], opts.Norm.MAP.Norm(k.MAP))
	}

	// Fit each objective. The length-scale floor keeps the safe set able
	// to expand: likelihood maximization alone may prefer scales shorter
	// than a grid step on rough surfaces, which would freeze exploration.
	minLS := opts.MinLengthScale
	if minLS == 0 {
		step := (1 - grid.MinResolution) / float64(grid.Levels-1)
		minLS = 8 * step
	}
	fitOpts := gp.FitOptions{
		Iterations:     opts.FitIterations,
		LengthScaleMin: minLS,
		LengthScaleMax: 6,
		NoiseVarMin:    1e-4,
		NoiseVarMax:    0.3,
		Rand:           rng,
	}
	res := PretrainResult{Samples: opts.Samples}
	for i := 0; i < 3; i++ {
		hp, ll, err := gp.Fit(opts.Kernel, xs, ys[i], fitOpts)
		if err != nil {
			return PretrainResult{}, fmt.Errorf("core: fitting objective %d: %w", i, err)
		}
		res.LengthScales[i] = hp.LengthScales
		res.NoiseVars[i] = hp.NoiseVar
		res.LogLikelihoods[i] = ll
	}
	return res, nil
}
