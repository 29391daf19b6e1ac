package bandit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// linEnv is a deterministic synthetic environment with a cheap feasible
// corner, shared by the baseline tests.
type linEnv struct {
	ctx   core.Context
	noise *rand.Rand
}

func (e *linEnv) Context() core.Context { return e.ctx }

func (e *linEnv) truth(x core.Control) core.KPIs {
	return core.KPIs{
		Delay:       0.1 + 0.5*x.Resolution + 0.4*(1-x.Airtime) + 0.3*(1-x.GPUSpeed),
		MAP:         0.1 + 0.6*x.Resolution,
		ServerPower: 80 + 100*x.GPUSpeed,
		BSPower:     4.5 + 2.5*x.Airtime,
	}
}

func (e *linEnv) Measure(x core.Control) (core.KPIs, error) {
	k := e.truth(x)
	if e.noise != nil {
		k.Delay *= 1 + 0.03*e.noise.NormFloat64()
		k.ServerPower += e.noise.NormFloat64()
		k.MAP += 0.01 * e.noise.NormFloat64()
	}
	return k, nil
}

func benchGrid() core.GridSpec {
	return core.GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1}
}

var (
	benchWeights = core.CostWeights{Delta1: 1, Delta2: 1}
	benchCons    = core.Constraints{MaxDelay: 0.9, MinMAP: 0.3}
)

func TestOracleFindsCheapestFeasible(t *testing.T) {
	env := &linEnv{ctx: core.Context{NumUsers: 1, MeanCQI: 15}}
	x, cost, err := Oracle(func(c core.Control) (core.KPIs, error) {
		return env.truth(c), nil
	}, benchGrid(), benchWeights, benchCons)
	if err != nil {
		t.Fatal(err)
	}
	if !benchCons.Satisfied(env.truth(x)) {
		t.Fatalf("oracle control %+v infeasible", x)
	}
	// Brute-force cross-check.
	ctls, err := benchGrid().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, c := range ctls {
		k := env.truth(c)
		if benchCons.Satisfied(k) && benchWeights.Cost(k) < best {
			best = benchWeights.Cost(k)
		}
	}
	if math.Abs(cost-best) > 1e-9 {
		t.Fatalf("oracle cost %v, brute force %v", cost, best)
	}
}

func TestOracleInfeasible(t *testing.T) {
	env := &linEnv{ctx: core.Context{NumUsers: 1, MeanCQI: 15}}
	_, _, err := Oracle(func(c core.Control) (core.KPIs, error) {
		return env.truth(c), nil
	}, benchGrid(), benchWeights, core.Constraints{MaxDelay: 0.01, MinMAP: 0.99})
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestDDPGOptionsValidation(t *testing.T) {
	bad := []DDPGOptions{
		{},
		{Grid: benchGrid()},
		{Grid: benchGrid(), Constraints: benchCons},
		{Grid: benchGrid(), Constraints: benchCons, Weights: benchWeights, BufferSize: 10, BatchSize: 20},
		{Grid: benchGrid(), Constraints: benchCons, Weights: benchWeights, MaxCost: -5},
	}
	for i, o := range bad {
		if _, err := NewDDPG(o); err == nil {
			t.Fatalf("options %d should be rejected", i)
		}
	}
}

func TestDDPGSelectsGridControls(t *testing.T) {
	d, err := NewDDPG(DDPGOptions{Grid: benchGrid(), Weights: benchWeights, Constraints: benchCons, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctls, err := benchGrid().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	onGrid := make(map[core.Control]bool, len(ctls))
	for _, c := range ctls {
		onGrid[c] = true
	}
	for i := 0; i < 50; i++ {
		x := d.Select(core.Context{NumUsers: 1, MeanCQI: 12})
		found := false
		for c := range onGrid {
			if math.Abs(c.Resolution-x.Resolution) < 1e-9 && math.Abs(c.Airtime-x.Airtime) < 1e-9 &&
				math.Abs(c.GPUSpeed-x.GPUSpeed) < 1e-9 && math.Abs(c.MCS-x.MCS) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("DDPG selected off-grid control %+v", x)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDDPGNoiseDecays(t *testing.T) {
	d, err := NewDDPG(DDPGOptions{Grid: benchGrid(), Weights: benchWeights, Constraints: benchCons, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Noise()
	for i := 0; i < 200; i++ {
		d.Select(core.Context{NumUsers: 1, MeanCQI: 12})
	}
	if d.Noise() >= before {
		t.Fatal("exploration noise should decay")
	}
}

func TestDDPGLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("DDPG training skipped in -short mode")
	}
	env := &linEnv{ctx: core.Context{NumUsers: 1, MeanCQI: 15}, noise: rand.New(rand.NewSource(6))}
	d, err := NewDDPG(DDPGOptions{
		Grid:        benchGrid(),
		Weights:     benchWeights,
		Constraints: benchCons,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]core.KPIs, 0, 800)
	for i := 0; i < 800; i++ {
		ctx := env.Context()
		x := d.Select(ctx)
		k, err := env.Measure(x)
		if err != nil {
			t.Fatal(err)
		}
		d.Observe(ctx, x, k)
		ks = append(ks, k)
	}
	ddpgCost := func(k core.KPIs) float64 {
		if !benchCons.Satisfied(k) {
			return d.opts.MaxCost
		}
		return benchWeights.Cost(k)
	}
	mean := func(ks []core.KPIs) float64 {
		var s float64
		for _, k := range ks {
			s += ddpgCost(k)
		}
		return s / float64(len(ks))
	}
	early := mean(ks[:100])
	late := mean(ks[700:])
	t.Logf("DDPG cost: early %.1f late %.1f", early, late)
	if late >= early {
		t.Fatalf("DDPG did not improve: early %v late %v", early, late)
	}
}

func TestDDPGSetConstraints(t *testing.T) {
	d, err := NewDDPG(DDPGOptions{Grid: benchGrid(), Weights: benchWeights, Constraints: benchCons, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetConstraints(core.Constraints{MaxDelay: 0.5, MinMAP: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetConstraints(core.Constraints{}); err == nil {
		t.Fatal("expected error for invalid constraints")
	}
}
