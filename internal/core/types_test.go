package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ran"
)

func TestControlValidate(t *testing.T) {
	good := Control{Resolution: 0.5, Airtime: 0.5, GPUSpeed: 0.5, MCS: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Control{
		{Resolution: 0, Airtime: 0.5, GPUSpeed: 0.5, MCS: 0.5},
		{Resolution: 1.1, Airtime: 0.5, GPUSpeed: 0.5, MCS: 0.5},
		{Resolution: 0.5, Airtime: 0, GPUSpeed: 0.5, MCS: 0.5},
		{Resolution: 0.5, Airtime: 0.5, GPUSpeed: -0.1, MCS: 0.5},
		{Resolution: 0.5, Airtime: 0.5, GPUSpeed: 0.5, MCS: 1.2},
		{Resolution: math.NaN(), Airtime: 0.5, GPUSpeed: 0.5, MCS: 0.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("expected validation error for %+v", c)
		}
	}
}

func TestContextValidate(t *testing.T) {
	for _, c := range []Context{{}, {NumUsers: 6, MeanCQI: ran.MaxCQI, VarCQI: 40}} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := []Context{
		{NumUsers: -1, MeanCQI: 10},
		{NumUsers: 1, MeanCQI: -0.5},
		{NumUsers: 1, MeanCQI: ran.MaxCQI + 1},
		{NumUsers: 1, MeanCQI: math.NaN()},
		{NumUsers: 1, MeanCQI: 10, VarCQI: -1},
		{NumUsers: 1, MeanCQI: 10, VarCQI: math.Inf(1)},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("expected validation error for %+v", c)
		}
	}
}

func TestKPIsValidate(t *testing.T) {
	good := KPIs{Delay: 0.3, GPUDelay: 0.1, MAP: 1, ServerPower: 90, BSPower: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*KPIs){
		func(k *KPIs) { k.Delay = -0.1 },
		func(k *KPIs) { k.GPUDelay = math.NaN() },
		func(k *KPIs) { k.ServerPower = math.Inf(1) },
		func(k *KPIs) { k.BSPower = -1 },
		func(k *KPIs) { k.MAP = 1.2 },
		func(k *KPIs) { k.MAP = math.NaN() },
	} {
		k := good
		mut(&k)
		if err := k.Validate(); err == nil {
			t.Fatalf("expected validation error for %+v", k)
		}
	}
}

func TestMCSCapMapping(t *testing.T) {
	if (Control{MCS: 0}).MCSCap() != 0 {
		t.Fatal("MCS 0 should map to cap 0")
	}
	if (Control{MCS: 1}).MCSCap() != ran.MaxMCS {
		t.Fatalf("MCS 1 should map to cap %d", ran.MaxMCS)
	}
	if got := (Control{MCS: 0.5}).MCSCap(); got < 11 || got > 12 {
		t.Fatalf("MCS 0.5 cap = %d, want ≈%d", got, ran.MaxMCS/2)
	}
}

func TestFeaturesShapeAndRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := Context{NumUsers: 1 + rng.Intn(6), MeanCQI: 1 + rng.Float64()*14, VarCQI: rng.Float64() * 10}
		x := Control{
			Resolution: 0.1 + 0.9*rng.Float64(),
			Airtime:    0.1 + 0.9*rng.Float64(),
			GPUSpeed:   rng.Float64(),
			MCS:        rng.Float64(),
		}
		z := Features(ctx, x)
		if len(z) != ContextDims+ControlDims {
			return false
		}
		for _, v := range z {
			if v < 0 || v > 1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostWeights(t *testing.T) {
	w := CostWeights{Delta1: 1, Delta2: 8}
	k := KPIs{ServerPower: 100, BSPower: 5}
	if got := w.Cost(k); got != 140 {
		t.Fatalf("cost = %v, want 140", got)
	}
}

func TestConstraints(t *testing.T) {
	c := Constraints{MaxDelay: 0.4, MinMAP: 0.5}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied(KPIs{Delay: 0.3, MAP: 0.6}) {
		t.Fatal("should be satisfied")
	}
	if c.Satisfied(KPIs{Delay: 0.5, MAP: 0.6}) {
		t.Fatal("delay violation missed")
	}
	if c.Satisfied(KPIs{Delay: 0.3, MAP: 0.4}) {
		t.Fatal("mAP violation missed")
	}
	for _, bad := range []Constraints{{MaxDelay: 0, MinMAP: 0.5}, {MaxDelay: 1, MinMAP: -0.1}, {MaxDelay: 1, MinMAP: 1.1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("expected error for %+v", bad)
		}
	}
}

func TestGridSpec(t *testing.T) {
	g := DefaultGridSpec()
	if g.Size() != 14641 {
		t.Fatalf("paper grid size = %d, want 14641", g.Size())
	}
	small := GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1}
	ctls, err := small.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ctls) != 81 {
		t.Fatalf("3-level grid has %d controls, want 81", len(ctls))
	}
	seen := make(map[Control]bool)
	for _, c := range ctls {
		if err := c.Validate(); err != nil {
			t.Fatalf("grid produced invalid control %+v: %v", c, err)
		}
		if seen[c] {
			t.Fatalf("duplicate control %+v", c)
		}
		seen[c] = true
	}
	if !seen[small.MaxControl()] {
		t.Fatal("grid must contain the max-resource control")
	}
}

func TestGridSpecValidate(t *testing.T) {
	bad := []GridSpec{
		{Levels: 1, MinResolution: 0.1, MinAirtime: 0.1},
		{Levels: 5, MinResolution: 0, MinAirtime: 0.1},
		{Levels: 5, MinResolution: 1, MinAirtime: 0.1},
		{Levels: 5, MinResolution: 0.1, MinAirtime: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("expected error for %+v", g)
		}
	}
}

func TestGridNearestSnapsOntoGrid(t *testing.T) {
	g := GridSpec{Levels: 5, MinResolution: 0.1, MinAirtime: 0.1}
	ctls, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	onGrid := make(map[Control]bool, len(ctls))
	for _, c := range ctls {
		onGrid[c] = true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Control{
			Resolution: rng.Float64()*1.2 - 0.1,
			Airtime:    rng.Float64()*1.2 - 0.1,
			GPUSpeed:   rng.Float64()*1.2 - 0.1,
			MCS:        rng.Float64()*1.2 - 0.1,
		}
		n := g.Nearest(x)
		// Tolerate float rounding by checking approximate membership.
		for c := range onGrid {
			if math.Abs(c.Resolution-n.Resolution) < 1e-9 &&
				math.Abs(c.Airtime-n.Airtime) < 1e-9 &&
				math.Abs(c.GPUSpeed-n.GPUSpeed) < 1e-9 &&
				math.Abs(c.MCS-n.MCS) < 1e-9 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridNearestIdempotentOnGridPoints(t *testing.T) {
	g := GridSpec{Levels: 4, MinResolution: 0.1, MinAirtime: 0.1}
	ctls, err := g.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctls {
		n := g.Nearest(c)
		if math.Abs(n.Resolution-c.Resolution) > 1e-9 || math.Abs(n.Airtime-c.Airtime) > 1e-9 ||
			math.Abs(n.GPUSpeed-c.GPUSpeed) > 1e-9 || math.Abs(n.MCS-c.MCS) > 1e-9 {
			t.Fatalf("Nearest moved a grid point: %+v -> %+v", c, n)
		}
	}
}
