package oran

import "repro/internal/core"

// Message type tags per interface.
const (
	// A1-P Policy Management Service (non-RT RIC → near-RT RIC).
	TypeA1PolicySetup = "a1.policy.setup"
	// O1 KPI collection (non-RT RIC ← near-RT RIC).
	TypeO1Collect = "o1.collect"
	// E2 radio policy enforcement (near-RT RIC → O-eNB).
	TypeE2Policy = "e2.policy"
	// E2 KPI report pull (near-RT RIC ← O-eNB).
	TypeE2KPI = "e2.kpi"
	// E2 context report (slice state: users, CQI statistics).
	TypeE2Context = "e2.context"
	// Custom interface to the edge service controller (Fig. 7).
	TypeServiceConfig = "svc.config"
	TypeServicePeriod = "svc.period"
	// Generic acknowledgement.
	TypeAck = "ack"
)

// RadioPolicy is the A1/E2 policy body: the §3 radio policies.
type RadioPolicy struct {
	// PolicyID identifies the A1 policy instance.
	PolicyID string `json:"policyId"`
	// Airtime is the duty-cycle cap in (0,1].
	Airtime float64 `json:"airtime"`
	// MCS is the normalized max-MCS policy in [0,1].
	MCS float64 `json:"mcs"`
}

// ServiceConfig is the custom-interface body: the service-side policies.
type ServiceConfig struct {
	// Resolution is the image-resolution policy in (0,1].
	Resolution float64 `json:"resolution"`
	// GPUSpeed is the normalized GPU power-limit policy in [0,1].
	GPUSpeed float64 `json:"gpuSpeed"`
	// SplitLayer is the device/edge DNN partition position in [0,1];
	// 0 (all-edge inference) is left off the wire.
	SplitLayer float64 `json:"splitLayer,omitempty"`
}

// PeriodReport is the service controller's response to a period trigger:
// the service-level KPIs measured during the period.
type PeriodReport struct {
	DelaySeconds float64 `json:"delaySeconds"`
	GPUDelay     float64 `json:"gpuDelaySeconds"`
	MAP          float64 `json:"map"`
	ServerPowerW float64 `json:"serverPowerW"`
}

// KPIReport is the E2/O1 KPI body: vBS-side measurements.
type KPIReport struct {
	// BSPowerW is the baseband power-meter reading.
	BSPowerW float64 `json:"bsPowerW"`
	// Period is the data-plane period counter the reading belongs to.
	Period uint64 `json:"period"`
}

// ContextReport carries the slice context over E2/O1.
type ContextReport struct {
	NumUsers int     `json:"numUsers"`
	MeanCQI  float64 `json:"meanCqi"`
	VarCQI   float64 `json:"varCqi"`
}

// Context converts the report to the core type.
func (c ContextReport) Context() core.Context {
	return core.Context{NumUsers: c.NumUsers, MeanCQI: c.MeanCQI, VarCQI: c.VarCQI}
}

// Ack is the generic acknowledgement body.
type Ack struct {
	OK bool `json:"ok"`
}
