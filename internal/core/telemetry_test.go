package core

import (
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryZeroOverhead pins DESIGN §10's contract: attaching a
// registry adds no allocation to a period, and handle updates never
// allocate, on live handles or on the nil handles of a disabled registry.
func TestTelemetryZeroOverhead(t *testing.T) {
	// The registry's period ring is sized to fill during the scripted
	// periods, so the measured ones see a long run's steady state, where
	// EmitPeriod overwrites a record in place.
	reg := telemetry.NewRegistry()
	reg.SetPeriodCapacity(8)
	env := &quadEnv{ctx: Context{NumUsers: 1, MeanCQI: 12}}
	var agents [2]*Agent
	for i, r := range []*telemetry.Registry{nil, reg} {
		a, err := NewAgent(Options{
			Grid:             GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1},
			Weights:          CostWeights{Delta1: 1, Delta2: 1},
			Constraints:      Constraints{MaxDelay: 0.9, MinMAP: 0.3},
			Norm:             quadNorm(),
			NoiseVars:        [3]float64{1e-4, 1e-4, 1e-4},
			InferenceWorkers: 1,
			Telemetry:        r,
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 30; p++ {
			if _, _, _, err := a.Step(env); err != nil {
				t.Fatal(err)
			}
		}
		agents[i] = a
	}

	const runs = 50
	var sel, period [2]float64
	for i, a := range agents {
		sel[i] = testing.AllocsPerRun(runs, func() { a.SelectControl(env.ctx) })
		period[i] = testing.AllocsPerRun(runs, func() {
			if _, _, _, err := a.Step(env); err != nil {
				t.Fatal(err)
			}
		})
	}
	if sel[0] != sel[1] {
		t.Errorf("SelectControl allocates %v times without telemetry, %v with a registry", sel[0], sel[1])
	}
	if period[0] != period[1] {
		t.Errorf("a period allocates %v times without telemetry, %v with a registry", period[0], period[1])
	}
	t.Logf("allocations: SelectControl %v, period %v", sel[0], period[0])

	live := telemetry.NewRegistry()
	handles := []struct {
		name string
		c    *telemetry.Counter
		g    *telemetry.Gauge
		h    *telemetry.Histogram
	}{
		{"live", live.Counter("c"), live.Gauge("g"), live.Histogram("h", telemetry.LatencyBuckets())},
		{"nil", nil, nil, nil},
	}
	for _, hs := range handles {
		for op, fn := range map[string]func(){
			"Counter.Inc":       func() { hs.c.Inc() },
			"Gauge.Set":         func() { hs.g.Set(0.5) },
			"Histogram.Observe": func() { hs.h.Observe(0.01) },
		} {
			if n := testing.AllocsPerRun(runs, fn); n != 0 {
				t.Errorf("%s %s allocates %v times", hs.name, op, n)
			}
		}
	}
}
