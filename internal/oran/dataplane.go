package oran

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DataPlane is the simulated machine room: the vBS and the GPU edge server
// share the testbed model, the vBS side staging the E2 radio policies and
// the service side the custom-interface configuration. RunPeriod executes
// one control period against the composed configuration.
//
// In the hardware prototype these are two physical boxes with the UE's
// traffic flowing between them; here they are two protocol endpoints over
// one simulator, which preserves the control-plane code path exactly.
type DataPlane struct {
	mu sync.Mutex

	env interface {
		core.Environment
	}
	radio   RadioPolicy
	service ServiceConfig

	period  uint64
	lastKPI core.KPIs
	hasKPI  bool

	periods *telemetry.Counter
}

// NewDataPlane wraps an environment (typically *testbed.Testbed) with
// staged policy state. Initial policies are maximum-resource defaults.
func NewDataPlane(env core.Environment) (*DataPlane, error) {
	if env == nil {
		return nil, fmt.Errorf("oran: nil environment")
	}
	return &DataPlane{
		env:     env,
		radio:   RadioPolicy{Airtime: 1, MCS: 1},
		service: ServiceConfig{Resolution: 1, GPUSpeed: 1},
	}, nil
}

// Instrument counts completed control periods in reg as
// edgebol_oran_periods_total. Call it before the deployment serves
// traffic; nil disables.
func (d *DataPlane) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	d.mu.Lock()
	d.periods = reg.Counter("edgebol_oran_periods_total")
	d.mu.Unlock()
}

// SetRadio stages an E2 radio policy.
func (d *DataPlane) SetRadio(p RadioPolicy) error {
	if p.Airtime <= 0 || p.Airtime > 1 {
		return fmt.Errorf("oran: airtime %v outside (0,1]", p.Airtime)
	}
	if p.MCS < 0 || p.MCS > 1 {
		return fmt.Errorf("oran: MCS policy %v outside [0,1]", p.MCS)
	}
	d.mu.Lock()
	d.radio = p
	d.mu.Unlock()
	return nil
}

// SetService stages the service-side configuration.
func (d *DataPlane) SetService(c ServiceConfig) error {
	if c.Resolution <= 0 || c.Resolution > 1 {
		return fmt.Errorf("oran: resolution %v outside (0,1]", c.Resolution)
	}
	if c.GPUSpeed < 0 || c.GPUSpeed > 1 {
		return fmt.Errorf("oran: GPU speed %v outside [0,1]", c.GPUSpeed)
	}
	if c.SplitLayer < 0 || c.SplitLayer > 1 {
		return fmt.Errorf("oran: split layer %v outside [0,1]", c.SplitLayer)
	}
	d.mu.Lock()
	d.service = c
	d.mu.Unlock()
	return nil
}

// RunPeriod executes one control period under the staged policies and
// returns the service-side report. The vBS-side KPI is retained for the
// next E2 pull.
func (d *DataPlane) RunPeriod() (PeriodReport, error) {
	d.mu.Lock()
	//edgebol:allow safectrl -- actuation boundary: composed from range-checked staged policies and validated below before Measure
	x := core.Control{
		Resolution: d.service.Resolution,
		Airtime:    d.radio.Airtime,
		GPUSpeed:   d.service.GPUSpeed,
		MCS:        d.radio.MCS,
		SplitLayer: d.service.SplitLayer,
	}
	d.mu.Unlock()
	if err := x.Validate(); err != nil {
		return PeriodReport{}, fmt.Errorf("oran: staged policies compose an invalid control: %w", err)
	}
	k, err := d.env.Measure(x)
	if err != nil {
		return PeriodReport{}, err
	}
	d.mu.Lock()
	d.period++
	d.lastKPI = k
	d.hasKPI = true
	d.periods.Inc()
	d.mu.Unlock()
	return PeriodReport{
		DelaySeconds: k.Delay,
		GPUDelay:     k.GPUDelay,
		MAP:          k.MAP,
		ServerPowerW: k.ServerPower,
	}, nil
}

// KPI returns the vBS-side report for the most recent period.
func (d *DataPlane) KPI() (KPIReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.hasKPI {
		return KPIReport{}, fmt.Errorf("oran: no period has run yet")
	}
	return KPIReport{BSPowerW: d.lastKPI.BSPower, Period: d.period}, nil
}

// ContextReport returns the slice context as seen at the vBS.
func (d *DataPlane) ContextReport() ContextReport {
	ctx := d.env.Context()
	return ContextReport{NumUsers: ctx.NumUsers, MeanCQI: ctx.MeanCQI, VarCQI: ctx.VarCQI}
}
