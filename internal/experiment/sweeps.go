package experiment

import (
	"repro/internal/core"
	"repro/internal/ran"
	"repro/internal/testbed"
)

// sweepSamples is how many measurement periods average into each plotted
// dot of the §3 sweeps (each period already averages 150 images, matching
// the paper's methodology).
const sweepSamples = 5

// newSweepTestbed builds the single-user 35 dB prototype configuration used
// by the §3 measurement campaign.
func newSweepTestbed(loadFactor float64, seed int64) (*testbed.Testbed, error) {
	cfg := testbed.DefaultConfig()
	cfg.LoadFactor = loadFactor
	return testbed.New(cfg, []ran.User{{SNRdB: 35}}, seed)
}

// levels returns n evenly spaced values across [lo, hi].
func levels(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// sweepControl builds the probe control for one calibration dot. The §3
// sweeps chart the testbed's raw dose-response surfaces (Figs. 1–6) and
// deliberately probe off the learned controller's grid — exactly how
// the paper calibrated its prototype — so this is the one sanctioned
// construction site outside the grid/safe-set machinery.
func sweepControl(res, air, gpu, mcs float64) core.Control {
	//edgebol:allow safectrl -- calibration sweeps probe the raw response surface off-grid by design and never actuate a learned policy
	return core.Control{Resolution: res, Airtime: air, GPUSpeed: gpu, MCS: mcs}
}

// measureDot runs one §3 measurement dot: sweepSamples periods at a fixed
// control, reporting the per-KPI medians.
func measureDot(tb *testbed.Testbed, x core.Control) (core.KPIs, error) {
	var delays, gpuDelays, maps, server, bs []float64
	for i := 0; i < sweepSamples; i++ {
		k, err := tb.Measure(x)
		if err != nil {
			return core.KPIs{}, err
		}
		delays = append(delays, k.Delay)
		gpuDelays = append(gpuDelays, k.GPUDelay)
		maps = append(maps, k.MAP)
		server = append(server, k.ServerPower)
		bs = append(bs, k.BSPower)
	}
	return core.KPIs{
		Delay:       Median(delays),
		GPUDelay:    Median(gpuDelays),
		MAP:         Median(maps),
		ServerPower: Median(server),
		BSPower:     Median(bs),
	}, nil
}

// Fig1 regenerates "mAP vs service delay for images with different
// resolutions": all other policies at maximum (minimum delay), resolution
// swept.
func Fig1(scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tb, err := newSweepTestbed(1, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig1",
		Title:   "mAP vs service delay per image resolution",
		Columns: []string{"resolution", "delay_s", "mAP"},
	}
	for _, res := range levels(0.25, 1, scale.SweepLevels) {
		k, err := measureDot(tb, sweepControl(res, 1, 1, 1))
		if err != nil {
			return nil, err
		}
		t.AddRow(res, k.Delay, k.MAP)
	}
	return t, nil
}

// Fig2 regenerates "service delay vs server power for different airtime
// policies and resolutions".
func Fig2(scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tb, err := newSweepTestbed(1, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Service delay vs server power across airtime x resolution",
		Columns: []string{"airtime", "resolution", "server_power_w", "delay_s"},
	}
	for _, air := range []float64{0.2, 0.5, 1.0} {
		for _, res := range levels(0.25, 1, scale.SweepLevels) {
			k, err := measureDot(tb, sweepControl(res, air, 1, 1))
			if err != nil {
				return nil, err
			}
			t.AddRow(air, res, k.ServerPower, k.Delay)
		}
	}
	return t, nil
}

// Fig3 regenerates "delay and GPU delay vs server power for different GPU
// speed policies and resolutions" (both panels of the paper's figure).
func Fig3(scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tb, err := newSweepTestbed(1, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Delay and GPU delay vs server power across GPU speed x resolution",
		Columns: []string{"gpu_speed", "resolution", "server_power_w", "delay_s", "gpu_delay_s"},
	}
	for _, gpu := range []float64{0.1, 0.45, 1.0} {
		for _, res := range levels(0.25, 1, scale.SweepLevels) {
			k, err := measureDot(tb, sweepControl(res, 1, gpu, 1))
			if err != nil {
				return nil, err
			}
			t.AddRow(gpu, res, k.ServerPower, k.Delay, k.GPUDelay)
		}
	}
	return t, nil
}

// Fig4 regenerates "mAP vs server power for different resolutions" at
// maximum radio and compute resources.
func Fig4(scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tb, err := newSweepTestbed(1, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "mAP vs server power per resolution",
		Columns: []string{"resolution", "server_power_w", "mAP"},
	}
	for _, res := range levels(0.25, 1, scale.SweepLevels) {
		k, err := measureDot(tb, sweepControl(res, 1, 1, 1))
		if err != nil {
			return nil, err
		}
		t.AddRow(res, k.ServerPower, k.MAP)
	}
	return t, nil
}

// figBSPower shares the Fig. 5/6 sweep at a given background load factor.
func figBSPower(id, title string, loadFactor float64, scale Scale, seed int64) (*Table, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	tb, err := newSweepTestbed(loadFactor, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"airtime", "mean_mcs", "resolution", "bs_power_w"},
	}
	for _, air := range []float64{0.2, 0.5, 1.0} {
		for _, mcsNorm := range levels(0, 1, scale.SweepLevels) {
			for _, res := range []float64{0.25, 0.5, 0.75, 1.0} {
				x := sweepControl(res, air, 1, mcsNorm)
				k, err := measureDot(tb, x)
				if err != nil {
					return nil, err
				}
				meanMCS := float64(ran.EffectiveMCS(ran.CQIFromSNR(35), x.MCSCap()))
				t.AddRow(air, meanMCS, res, k.BSPower)
			}
		}
	}
	return t, nil
}

// Fig5 regenerates "BS power vs radio policies" at nominal load.
func Fig5(scale Scale, seed int64) (*Table, error) {
	return figBSPower("fig5", "BS power vs MCS x airtime x resolution (nominal load)", 1, scale, seed)
}

// Fig6 regenerates the same sweep at 10x load, where the MCS effect
// inverts for high-resolution traffic.
func Fig6(scale Scale, seed int64) (*Table, error) {
	return figBSPower("fig6", "BS power vs MCS x airtime x resolution (10x load)", 10, scale, seed)
}
