package oran

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultTimeout bounds each control-plane request when DeployOptions
// leaves Timeout zero.
const DefaultTimeout = 5 * time.Second

// DeployOptions configures a Deploy call. The zero value is valid:
// default timeout, no metrics endpoint, no telemetry.
type DeployOptions struct {
	// Timeout bounds every control-plane request (A1, E2, O1, and the
	// custom service interface). Zero or negative means DefaultTimeout.
	Timeout time.Duration
	// MetricsAddr, when non-empty, starts an HTTP server on that address
	// serving /metrics (Prometheus text format) and /debug/pprof. Use
	// "127.0.0.1:0" for an ephemeral port; Deployment.MetricsAddr reports
	// the bound address.
	MetricsAddr string
	// Telemetry receives the deployment's metrics and may be shared with
	// the learning agent (core.Options.Telemetry) so one registry carries
	// the whole loop. Nil with MetricsAddr set auto-creates a registry;
	// nil otherwise disables instrumentation entirely.
	Telemetry *telemetry.Registry
	// CheckpointDir, when non-empty, equips the deployment with a
	// Checkpointer committing agent snapshots into that directory with
	// crash-safe write-then-rename semantics. Drive it via
	// Deployment.Checkpointer().Tick (or Save) from the control loop.
	CheckpointDir string
	// CheckpointEvery sets the Tick interval in observation periods.
	// Zero or negative means no periodic saves (explicit Save only).
	CheckpointEvery int
}

// Deployment is a complete loopback control plane: data plane, E2 node,
// service controller, near-RT RIC, and non-RT RIC, all wired over TCP.
type Deployment struct {
	DataPlane  *DataPlane
	E2Node     *E2Node
	ServiceCtl *ServiceController
	NearRT     *NearRTRIC
	NonRT      *NonRTRIC

	svcClient *Client
	reg       *telemetry.Registry
	ckpt      *Checkpointer
	httpLn    net.Listener
	httpSrv   *http.Server
	stopWatch func() bool

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
}

// Deploy stands up the whole Fig. 7 stack on loopback ephemeral ports
// around the given environment (typically a *testbed.Testbed). The context
// is required: canceling it after a successful return tears the deployment
// down (equivalent to Close), and cancellation during bring-up aborts the
// in-flight dials. Callers that never cancel pass context.Background().
func Deploy(ctx context.Context, env core.Environment, opts DeployOptions) (*Deployment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reg := opts.Telemetry
	if reg == nil && opts.MetricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	dp, err := NewDataPlane(env)
	if err != nil {
		return nil, err
	}
	dp.Instrument(reg)
	// started tracks components brought up so far; fail tears them down
	// in reverse order, keeping the constructor error as the cause.
	var started []interface{ Close() error }
	fail := func(err error) (*Deployment, error) {
		for i := len(started) - 1; i >= 0; i-- {
			_ = started[i].Close() // already failing; surface the root cause
		}
		return nil, err
	}
	e2, err := NewE2Node("127.0.0.1:0", dp)
	if err != nil {
		return fail(err)
	}
	started = append(started, e2)
	e2.Instrument(reg)
	svc, err := NewServiceController("127.0.0.1:0", dp)
	if err != nil {
		return fail(err)
	}
	started = append(started, svc)
	svc.Instrument(reg)
	near, err := NewNearRTRIC(ctx, "127.0.0.1:0", e2.Addr(), timeout)
	if err != nil {
		return fail(err)
	}
	started = append(started, near)
	near.Instrument(reg)
	non, err := NewNonRTRIC(ctx, near.Addr(), timeout)
	if err != nil {
		return fail(err)
	}
	started = append(started, non)
	non.Instrument(reg)
	svcClient, err := Dial(ctx, svc.Addr(), timeout)
	if err != nil {
		return fail(err)
	}
	started = append(started, svcClient)
	svcClient.Instrument(reg, "svc")
	d := &Deployment{
		DataPlane:  dp,
		E2Node:     e2,
		ServiceCtl: svc,
		NearRT:     near,
		NonRT:      non,
		svcClient:  svcClient,
		reg:        reg,
		done:       make(chan struct{}),
	}
	if opts.CheckpointDir != "" {
		ckpt, err := NewCheckpointer(opts.CheckpointDir, opts.CheckpointEvery)
		if err != nil {
			return fail(err)
		}
		ckpt.Instrument(reg)
		d.ckpt = ckpt
	}
	if opts.MetricsAddr != "" {
		ln, err := net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			return fail(fmt.Errorf("oran: metrics listen %s: %w", opts.MetricsAddr, err))
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: telemetry.Mux(reg)}
		//edgebol:allow ctxleak -- Serve loop is stopped by the ctx AfterFunc below via Close, not by observing ctx
		go func() { _ = d.httpSrv.Serve(ln) }() // Serve returns ErrServerClosed on Close
	}
	// After this point the deployment owns its components; a ctx cancel
	// closes the whole stack instead of individual dials.
	d.stopWatch = context.AfterFunc(ctx, func() { _ = d.Close() })
	return d, nil
}

// Registry returns the telemetry registry instrumenting this deployment,
// or nil when telemetry is disabled.
func (d *Deployment) Registry() *telemetry.Registry { return d.reg }

// Checkpointer returns the deployment's checkpointer, or nil when
// DeployOptions.CheckpointDir was empty.
func (d *Deployment) Checkpointer() *Checkpointer { return d.ckpt }

// MetricsAddr returns the bound address of the metrics HTTP endpoint, or
// "" when none was requested.
func (d *Deployment) MetricsAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Done is closed when the deployment has been torn down, whether by Close
// or by the Deploy context being canceled.
func (d *Deployment) Done() <-chan struct{} { return d.done }

// Close tears the stack down. It is idempotent and safe to race with the
// context watcher installed by Deploy.
func (d *Deployment) Close() error {
	d.closeOnce.Do(func() {
		if d.stopWatch != nil {
			d.stopWatch()
		}
		if d.httpSrv != nil {
			_ = d.httpSrv.Close() // shutting down; nothing left to serve
		}
		var first error
		for _, c := range []interface{ Close() error }{d.svcClient, d.NonRT, d.NearRT, d.ServiceCtl, d.E2Node} {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		d.closeErr = first
		close(d.done)
	})
	return d.closeErr
}

// Environment adapts the deployment to core.Environment: every Measure
// routes the radio policies over A1→E2, the service policies over the
// custom interface, triggers the period, and collects the vBS KPI back
// over E2→O1 — the full Fig. 7 round trip per control period.
type Environment struct {
	d *Deployment
}

// Env returns the deployment's core.Environment view.
func (d *Deployment) Env() *Environment { return &Environment{d: d} }

// Context implements core.Environment via the O1/E2 context pull. The
// core.Environment signature carries no ctx, so the pull runs under
// context.Background().
func (e *Environment) Context() core.Context {
	report, err := e.d.NonRT.CollectContext(context.Background())
	if err != nil {
		// The context pull failing means the control plane is down; the
		// zero context keeps the caller deterministic rather than hiding a
		// torn-down deployment behind a panic.
		return core.Context{}
	}
	return report.Context()
}

// Measure implements core.Environment across the control plane.
func (e *Environment) Measure(x core.Control) (core.KPIs, error) {
	return e.MeasureCtx(context.Background(), x)
}

// MeasureCtx implements core.ContextEnvironment: the same Fig. 7 round
// trip as Measure, with every control-plane request bounded by ctx so a
// caller can abandon a period mid-flight.
func (e *Environment) MeasureCtx(ctx context.Context, x core.Control) (core.KPIs, error) {
	if err := x.Validate(); err != nil {
		return core.KPIs{}, err
	}
	// rApp → A1 → xApp → E2: radio policies.
	if err := e.d.NonRT.ApplyRadioPolicy(ctx, x.Airtime, x.MCS); err != nil {
		return core.KPIs{}, fmt.Errorf("oran: radio policy: %w", err)
	}
	// Edge orchestrator → service controller: service policies.
	cfg, err := NewMessage(TypeServiceConfig, ServiceConfig{
		Resolution: x.Resolution,
		GPUSpeed:   x.GPUSpeed,
		SplitLayer: x.SplitLayer,
	})
	if err != nil {
		return core.KPIs{}, err
	}
	if _, err := e.d.svcClient.Call(ctx, cfg); err != nil {
		return core.KPIs{}, fmt.Errorf("oran: service config: %w", err)
	}
	// Run the period and collect the service-side KPIs.
	resp, err := e.d.svcClient.Call(ctx, Message{Type: TypeServicePeriod})
	if err != nil {
		return core.KPIs{}, fmt.Errorf("oran: period: %w", err)
	}
	var report PeriodReport
	if err := resp.Decode(&report); err != nil {
		return core.KPIs{}, err
	}
	// Data-collector rApp ← O1 ← database xApp ← E2: vBS power.
	kpi, err := e.d.NonRT.CollectBSPower(ctx)
	if err != nil {
		return core.KPIs{}, fmt.Errorf("oran: KPI collection: %w", err)
	}
	return core.KPIs{
		Delay:       report.DelaySeconds,
		GPUDelay:    report.GPUDelay,
		MAP:         report.MAP,
		ServerPower: report.ServerPowerW,
		BSPower:     kpi.BSPowerW,
	}, nil
}

var (
	_ core.Environment        = (*Environment)(nil)
	_ core.ContextEnvironment = (*Environment)(nil)
)
