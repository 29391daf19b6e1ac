package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchAgent builds an agent on the paper's full 11⁴ grid with t seeded
// synthetic observations, matching the per-period state of a long run.
func benchAgent(b *testing.B, t int) (*Agent, Context) {
	return benchAgentEngine(b, t, EngineExact)
}

func benchAgentEngine(b *testing.B, t int, engine EngineSelector) (*Agent, Context) {
	return benchAgentGrid(b, t, DefaultGridSpec(), AcqAuto, engine)
}

// benchAgentGrid seeds observations by direct index arithmetic
// (GridSpec.At), never materializing the grid — the multi-million-point
// adaptive variants would not appreciate a 7.4M-element warm-up slice.
func benchAgentGrid(b *testing.B, t int, spec GridSpec, mode AcquisitionMode, engine EngineSelector) (*Agent, Context) {
	b.Helper()
	opts := Options{
		Grid:        spec,
		Weights:     CostWeights{Delta1: 1, Delta2: 8},
		Constraints: Constraints{MaxDelay: 0.4, MinMAP: 0.5},
		Engine:      engine,
		Acquisition: mode,
	}
	a, err := NewAgent(opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	size := spec.Size()
	for i := 0; i < t; i++ {
		ctx := Context{NumUsers: 1 + rng.Intn(4), MeanCQI: 8 + 7*rng.Float64(), VarCQI: 3 * rng.Float64()}
		x := spec.At(rng.Intn(size))
		k := KPIs{
			Delay:       0.15 + 0.3*rng.Float64(),
			GPUDelay:    0.05 + 0.1*rng.Float64(),
			MAP:         0.45 + 0.25*rng.Float64(),
			ServerPower: 80 + 120*rng.Float64(),
			BSPower:     4.5 + 3*rng.Float64(),
		}
		if err := a.Observe(ctx, x, k); err != nil {
			b.Fatal(err)
		}
	}
	return a, Context{NumUsers: 2, MeanCQI: 12, VarCQI: 1.5}
}

// benchExactCap is the largest history the exact-engine benchmark runs
// at; above it the O(t²)-per-candidate sweep is not a supported operating
// point (the sparse engine is) and the variant skips with a logged
// reason.
const benchExactCap = 1000

// BenchmarkSelectControl measures one full acquisition step — three GP
// posterior sweeps over the 14 641-point grid, the safe-set filter, and
// the constrained-LCB argmin — at several history sizes t. The
// engine=sparse variants run the inducing-point engine (m=128) and pin
// its flat per-period cost out to t=10⁴.
func BenchmarkSelectControl(b *testing.B) {
	for _, t := range []int{50, 200, 1000, 5000} {
		if testing.Short() && t > 200 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			if t > benchExactCap {
				b.Skipf("exact engine skipped at t=%d: O(t²) per-candidate sweep; see the engine=sparse variant", t)
			}
			a, ctx := benchAgent(b, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}
	for _, t := range []int{1000, 5000, 10000} {
		// t=1000 stays in short mode so the short run covers the sparse
		// engine too; the longer horizons are full-run only.
		if testing.Short() && t > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("t=%d/engine=sparse", t), func(b *testing.B) {
			a, ctx := benchAgentEngine(b, t, EngineSparse)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}

	// Grid-size variants at t=200: the exhaustive sweep against the
	// adaptive coarse-to-fine engine as the control space grows from the
	// paper's 11⁴ to the 31⁴×8 ≈ 7.4M-candidate split-inference grid.
	grid31 := GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1}
	grid31x8 := GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1,
		LevelsPerDim: [ControlDims]int{31, 31, 31, 31, 8}}
	variants := []struct {
		name     string
		spec     GridSpec
		mode     AcquisitionMode
		fullOnly bool
	}{
		{"grid=11p4/acq=exhaustive", DefaultGridSpec(), AcqExhaustive, false},
		// Exhaustive at 31⁴ = 923 521 candidates sweeps ~0.5 GB of
		// posterior work per period; full-run only, it exists to anchor
		// the speedup claim.
		{"grid=31p4/acq=exhaustive", grid31, AcqExhaustive, true},
		{"grid=31p4/acq=adaptive", grid31, AcqAuto, false},
		{"grid=31p4x8/acq=adaptive", grid31x8, AcqAuto, false},
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("%s/t=200", v.name), func(b *testing.B) {
			if v.fullOnly && testing.Short() {
				b.Skipf("full-run only: exhaustive sweep over %d candidates", v.spec.Size())
			}
			a, ctx := benchAgentGrid(b, 200, v.spec, v.mode, EngineExact)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.SelectControl(ctx)
			}
		})
	}
}
