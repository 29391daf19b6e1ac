package core

import (
	"math"
	"testing"
)

// bruteForceSelection is the selection rule written out from the paper in
// test code, one grid point at a time: posteriors through PosteriorAt (the
// GP's single-point Posterior, not the sweep), the eq. 8 safe set with the
// informedness gate and the predictive delay bound, seed inclusion and
// retirement, then the eq. 9 argmin (first index wins) or the SafeOpt
// rule, and the least-violating-seed fallback. A decomposed-cost agent's
// cost posterior is combined here from the two power GPs.
func bruteForceSelection(t *testing.T, a *Agent, ctx Context) (x Control, lcb float64, safeSize int, fromSeed bool) {
	t.Helper()
	o := a.opts
	grid, err := o.Grid.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(grid)
	cost := make([]Posterior, n)
	delay := make([]Posterior, n)
	mAP := make([]Posterior, n)
	for i, g := range grid {
		cost[i], delay[i], mAP[i] = a.PosteriorAt(ctx, g)
		if !o.DecomposedCost {
			continue
		}
		// μ_u = δ₁·p̂_s + δ₂·p̂_b in raw units and, the surfaces being
		// independent, σ_u² = (δ₁·s_s·σ_s)² + (δ₂·s_b·σ_b)².
		z := Features(ctx, g)
		ms, ss := a.learned(gpServerPower).Posterior(z)
		mb, sb := a.learned(gpBSPower).Posterior(z)
		w, ns, nb := o.Weights, o.Norm.ServerPower, o.Norm.BSPower
		ss, sb = w.Delta1*ns.Scale*ss, w.Delta2*nb.Scale*sb
		cost[i] = Posterior{
			Mean:  w.Delta1*(ms*ns.Scale+ns.Center) + w.Delta2*(mb*nb.Scale+nb.Center),
			Sigma: math.Sqrt(ss*ss + sb*sb),
		}
	}
	dmax := o.Norm.Delay.Norm(o.Constraints.MaxDelay)
	rmin := o.Norm.MAP.Norm(o.Constraints.MinMAP)
	zeta := math.Sqrt(a.learned(gpDelay).NoiseVar())
	violates := func(i int) bool { return delay[i].Mean > dmax || mAP[i].Mean < rmin }
	lcbAt := func(i int) float64 { return cost[i].Mean - o.AcqBeta*cost[i].Sigma }

	safe := make([]bool, n)
	for i := range grid {
		d, m := delay[i], mAP[i]
		safe[i] = o.DisableSafeSet ||
			(d.Sigma < informedSigma && m.Sigma < informedSigma &&
				d.Mean+o.SafeBeta*math.Sqrt(d.Sigma*d.Sigma+zeta*zeta) <= dmax &&
				m.Mean-o.SafeBeta*m.Sigma >= rmin)
		if safe[i] {
			safeSize++
		}
	}
	var seeds []int
	for _, s := range o.SafeSeed {
		seeds = append(seeds, o.Grid.Index(s))
	}
	for _, gi := range seeds {
		if safe[gi] {
			continue
		}
		safeSize++
		retired := violates(gi) && delay[gi].Sigma < seedRetireSigma && mAP[gi].Sigma < seedRetireSigma
		safe[gi] = !retired
	}

	best := -1
	switch o.Rule {
	case AcquisitionSafeOpt:
		bestUCB := math.Inf(1)
		for i := range grid {
			if safe[i] {
				bestUCB = math.Min(bestUCB, cost[i].Mean+o.AcqBeta*cost[i].Sigma)
			}
		}
		bestUnc := -1.0
		for i := range grid {
			if !safe[i] {
				continue
			}
			minimizer := lcbAt(i) <= bestUCB
			expander := delay[i].Mean+o.SafeBeta*delay[i].Sigma >= dmax-0.5 ||
				mAP[i].Mean-o.SafeBeta*mAP[i].Sigma <= rmin+0.5
			if !minimizer && !expander {
				continue
			}
			if unc := math.Max(cost[i].Sigma, math.Max(delay[i].Sigma, mAP[i].Sigma)); unc > bestUnc {
				bestUnc, best = unc, i
			}
		}
	default:
		for i := range grid {
			if safe[i] && (best < 0 || lcbAt(i) < lcbAt(best)) {
				best = i
			}
		}
	}
	if best < 0 {
		bestScore := math.Inf(1)
		for _, gi := range seeds {
			score := math.Max(delay[gi].Mean-dmax, 0) + math.Max(rmin-mAP[gi].Mean, 0)
			if score < bestScore {
				bestScore, best = score, gi
			}
		}
	}
	fromSeed = delay[best].Mean+o.SafeBeta*delay[best].Sigma > dmax ||
		mAP[best].Mean-o.SafeBeta*mAP[best].Sigma < rmin
	return grid[best], lcbAt(best), safeSize, fromSeed
}

// TestSelectControlMatchesBruteForce checks SelectControl against
// bruteForceSelection over scripted periods: the chosen control, its LCB,
// the safe-set size and the seed flag must agree bitwise. The oracle shares
// no code with the sweep, so this holds the selection rule independently
// of the engine-versus-engine equivalence tests.
func TestSelectControlMatchesBruteForce(t *testing.T) {
	const T = 30
	grids := []struct {
		name string
		grid func() GridSpec
	}{
		{"3p4", func() GridSpec { return testOptions().Grid }},
		{"split", func() GridSpec {
			g := testOptions().Grid
			g.LevelsPerDim = [ControlDims]int{3, 4, 3, 2, 3}
			return g
		}},
		{"non-uniform", func() GridSpec {
			g := testOptions().Grid
			g.LevelsPerDim = [ControlDims]int{3, 5, 2, 4, 1}
			return g
		}},
	}
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"sparse", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
		}},
		{"evicting", func(o *Options) { o.MaxObservations = 8 }},
		{"no safe set", func(o *Options) { o.DisableSafeSet = true }},
		{"safeopt", func(o *Options) { o.Rule = AcquisitionSafeOpt }},
		{"workers=3", func(o *Options) { o.InferenceWorkers = 3 }},
		{"decomposed", func(o *Options) { o.DecomposedCost = true }},
	}
	for _, g := range grids {
		for _, tc := range cases {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				opts := testOptions()
				opts.Grid = g.grid()
				tc.mut(&opts)
				a, err := NewAgent(opts)
				if err != nil {
					t.Fatal(err)
				}
				fallbacks := 0
				for i := 0; i < T; i++ {
					ctx := scriptContext(i)
					wantX, wantLCB, wantSafe, wantSeed := bruteForceSelection(t, a, ctx)
					x, info := a.SelectControl(ctx)
					if !controlBitsEq(x, wantX) {
						t.Fatalf("period %d: selected %+v, brute force %+v", i, x, wantX)
					}
					if !f64bitsEq(info.LCB, wantLCB) || info.SafeSetSize != wantSafe || info.FromSeed != wantSeed {
						t.Fatalf("period %d: LCB %v, safe set %d, from seed %v; brute force %v, %d, %v",
							i, info.LCB, info.SafeSetSize, info.FromSeed, wantLCB, wantSafe, wantSeed)
					}
					if info.FromSeed {
						fallbacks++
					}
					if err := a.Observe(ctx, x, acqKPIs(i, x)); err != nil {
						t.Fatal(err)
					}
				}
				if fallbacks == T && !opts.DisableSafeSet {
					t.Fatal("every period fell back to the seed set: the learned safe set went unexercised")
				}
			})
		}
	}
}

// selectionInfoBitsEq compares every field of two SelectionInfo values
// bitwise, except the wall-clock SweepSeconds.
func selectionInfoBitsEq(a, b SelectionInfo) bool {
	post := func(x, y Posterior) bool { return f64bitsEq(x.Mean, y.Mean) && f64bitsEq(x.Sigma, y.Sigma) }
	return a.SafeSetSize == b.SafeSetSize && a.FromSeed == b.FromSeed && a.Adaptive == b.Adaptive &&
		a.CandidatesEvaluated == b.CandidatesEvaluated && a.VarianceSolves == b.VarianceSolves &&
		a.RefineRounds == b.RefineRounds && f64bitsEq(a.LCB, b.LCB) &&
		post(a.Cost, b.Cost) && post(a.Delay, b.Delay) && post(a.MAP, b.MAP)
}

// TestSelectControlIgnoresUnscoredSlots pins that the selection reads no
// per-slot entry the period did not write: a slot the screen drops keeps
// whatever its mu, sigma, lcb and rank held, and must not matter. Twin
// agents receive the same observations; before every period one twin's
// buffers are filled with garbage — NaN posteriors and LCBs, every slot
// safe and of rank 0 — and both twins must choose the same control with
// bitwise-equal diagnostics.
func TestSelectControlIgnoresUnscoredSlots(t *testing.T) {
	const T = 30
	grids := []struct {
		name string
		grid func() GridSpec
	}{
		{"3p4", func() GridSpec { return testOptions().Grid }},
		{"split", func() GridSpec {
			g := testOptions().Grid
			g.LevelsPerDim = [ControlDims]int{3, 4, 3, 2, 3}
			return g
		}},
		{"non-uniform", func() GridSpec {
			g := testOptions().Grid
			g.LevelsPerDim = [ControlDims]int{3, 5, 2, 4, 1}
			return g
		}},
	}
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"evicting", func(o *Options) { o.MaxObservations = 8 }},
		{"safeopt", func(o *Options) { o.Rule = AcquisitionSafeOpt }},
		{"decomposed", func(o *Options) { o.DecomposedCost = true }},
		{"sparse", func(o *Options) {
			o.Engine = EngineSparse
			o.InducingPoints = 16
		}},
	}
	for _, g := range grids {
		for _, tc := range cases {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				opts := testOptions()
				opts.Grid = g.grid()
				tc.mut(&opts)
				var twins [2]*Agent
				for i := range twins {
					a, err := NewAgent(opts)
					if err != nil {
						t.Fatal(err)
					}
					twins[i] = a
				}
				clean, dirty := twins[0], twins[1]
				screened := 0
				for i := 0; i < T; i++ {
					e := dirty.acq
					for id := range e.mu {
						for s := range e.mu[id] {
							e.mu[id][s], e.sigma[id][s] = math.NaN(), math.NaN()
						}
					}
					for s := range e.lcb {
						e.lcb[s], e.safe[s], e.rank[s] = math.NaN(), true, 0
					}
					ctx := scriptContext(i)
					x, info := clean.SelectControl(ctx)
					dx, dinfo := dirty.SelectControl(ctx)
					if !controlBitsEq(x, dx) || !selectionInfoBitsEq(info, dinfo) {
						t.Fatalf("period %d: clean twin chose %+v %+v, dirty twin %+v %+v", i, x, info, dx, dinfo)
					}
					screened += info.CandidatesEvaluated - info.VarianceSolves
					for _, a := range twins {
						if err := a.Observe(ctx, x, acqKPIs(i, x)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if screened == 0 {
					t.Fatal("the screen dropped no slot: the unscored path went unexercised")
				}
			})
		}
	}
}
