package oran

import (
	"context"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// E2Node is the vBS-side E2 termination (the srsRAN modification of §6.1):
// it enforces radio policies from the near-RT RIC and serves KPI and
// context pulls.
type E2Node struct {
	server *Server
	dp     *DataPlane
}

// NewE2Node starts the E2 termination on addr.
func NewE2Node(addr string, dp *DataPlane) (*E2Node, error) {
	n := &E2Node{dp: dp}
	server, err := NewServer(addr, n.handle)
	if err != nil {
		return nil, err
	}
	n.server = server
	return n, nil
}

// Addr returns the E2 endpoint address.
func (n *E2Node) Addr() string { return n.server.Addr() }

// Instrument counts E2 messages handled by the node in reg.
func (n *E2Node) Instrument(reg *telemetry.Registry) { n.server.Instrument(reg, "e2") }

// Close stops the node.
func (n *E2Node) Close() error { return n.server.Close() }

func (n *E2Node) handle(req Message) (Message, error) {
	switch req.Type {
	case TypeE2Policy:
		var p RadioPolicy
		if err := req.Decode(&p); err != nil {
			return Message{}, err
		}
		if err := n.dp.SetRadio(p); err != nil {
			return Message{}, err
		}
		return NewMessage(TypeAck, Ack{OK: true})
	case TypeE2KPI:
		kpi, err := n.dp.KPI()
		if err != nil {
			return Message{}, err
		}
		return NewMessage(TypeE2KPI, kpi)
	case TypeE2Context:
		return NewMessage(TypeE2Context, n.dp.ContextReport())
	default:
		return Message{}, fmt.Errorf("oran: E2 node: unknown message %q", req.Type)
	}
}

// ServiceController is the edge-server-side endpoint of Fig. 7's custom
// interface: it applies service configuration (resolution, GPU speed) and
// runs control periods.
type ServiceController struct {
	server *Server
	dp     *DataPlane
}

// NewServiceController starts the controller on addr.
func NewServiceController(addr string, dp *DataPlane) (*ServiceController, error) {
	c := &ServiceController{dp: dp}
	server, err := NewServer(addr, c.handle)
	if err != nil {
		return nil, err
	}
	c.server = server
	return c, nil
}

// Addr returns the controller's address.
func (c *ServiceController) Addr() string { return c.server.Addr() }

// Instrument counts custom-interface messages handled by the controller.
func (c *ServiceController) Instrument(reg *telemetry.Registry) { c.server.Instrument(reg, "svc") }

// Close stops the controller.
func (c *ServiceController) Close() error { return c.server.Close() }

func (c *ServiceController) handle(req Message) (Message, error) {
	switch req.Type {
	case TypeServiceConfig:
		var cfg ServiceConfig
		if err := req.Decode(&cfg); err != nil {
			return Message{}, err
		}
		if err := c.dp.SetService(cfg); err != nil {
			return Message{}, err
		}
		return NewMessage(TypeAck, Ack{OK: true})
	case TypeServicePeriod:
		report, err := c.dp.RunPeriod()
		if err != nil {
			return Message{}, err
		}
		return NewMessage(TypeServicePeriod, report)
	default:
		return Message{}, fmt.Errorf("oran: service controller: unknown message %q", req.Type)
	}
}

// NearRTRIC hosts the xApps of Fig. 7: the A1-P termination that forwards
// radio policies to the E2 node, and the database xApp that pulls KPIs over
// E2 and serves them upward over O1.
type NearRTRIC struct {
	server *Server
	e2     *Client
}

// NewNearRTRIC starts the near-RT RIC on addr, connected to the E2 node;
// ctx bounds the E2 dial.
func NewNearRTRIC(ctx context.Context, addr, e2Addr string, timeout time.Duration) (*NearRTRIC, error) {
	e2, err := Dial(ctx, e2Addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("oran: near-RT RIC: %w", err)
	}
	r := &NearRTRIC{e2: e2}
	server, err := NewServer(addr, r.handle)
	if err != nil {
		_ = e2.Close() // already failing; surface the server error
		return nil, err
	}
	r.server = server
	return r, nil
}

// Addr returns the RIC's A1/O1 endpoint address.
func (r *NearRTRIC) Addr() string { return r.server.Addr() }

// Instrument counts A1/O1 messages handled by the RIC and the latency of
// its xApp-side E2 calls.
func (r *NearRTRIC) Instrument(reg *telemetry.Registry) {
	r.server.Instrument(reg, "a1")
	r.e2.Instrument(reg, "e2")
}

// Close stops the RIC.
func (r *NearRTRIC) Close() error {
	err := r.server.Close()
	if cerr := r.e2.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *NearRTRIC) handle(req Message) (Message, error) {
	switch req.Type {
	case TypeA1PolicySetup:
		// Policy xApp: translate the A1 policy into an E2 enforcement.
		var p RadioPolicy
		if err := req.Decode(&p); err != nil {
			return Message{}, err
		}
		fwd, err := NewMessage(TypeE2Policy, p)
		if err != nil {
			return Message{}, err
		}
		if _, err := r.e2.Call(context.Background(), fwd); err != nil {
			return Message{}, err
		}
		return NewMessage(TypeAck, Ack{OK: true})
	case TypeO1Collect:
		// Database xApp: pull the vBS KPI over E2 and forward it.
		resp, err := r.e2.Call(context.Background(), Message{Type: TypeE2KPI})
		if err != nil {
			return Message{}, err
		}
		return resp, nil
	case TypeE2Context:
		resp, err := r.e2.Call(context.Background(), Message{Type: TypeE2Context})
		if err != nil {
			return Message{}, err
		}
		return resp, nil
	default:
		return Message{}, fmt.Errorf("oran: near-RT RIC: unknown message %q", req.Type)
	}
}

// NonRTRIC hosts the rApps of Fig. 7 on the SMO side: the policy-service
// rApp (A1 client) and the data-collector rApp (O1 client). The learning
// agent calls it in-process.
type NonRTRIC struct {
	a1 *Client
}

// NewNonRTRIC connects the non-RT RIC to a near-RT RIC endpoint; ctx
// bounds the A1 dial.
func NewNonRTRIC(ctx context.Context, nearRTAddr string, timeout time.Duration) (*NonRTRIC, error) {
	a1, err := Dial(ctx, nearRTAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("oran: non-RT RIC: %w", err)
	}
	return &NonRTRIC{a1: a1}, nil
}

// Close disconnects the RIC.
func (r *NonRTRIC) Close() error { return r.a1.Close() }

// Instrument counts the rApps' A1/O1 requests and their latency.
func (r *NonRTRIC) Instrument(reg *telemetry.Registry) { r.a1.Instrument(reg, "a1") }

// RadioPolicyID names the one A1 policy instance the policy-service rApp
// owns: every ApplyRadioPolicy updates it in place.
const RadioPolicyID = "edgebol"

// ApplyRadioPolicy deploys the radio policies through the A1 Policy
// Management Service as an update of the RadioPolicyID instance.
func (r *NonRTRIC) ApplyRadioPolicy(ctx context.Context, airtime, mcs float64) error {
	req, err := NewMessage(TypeA1PolicySetup, RadioPolicy{
		PolicyID: RadioPolicyID,
		Airtime:  airtime,
		MCS:      mcs,
	})
	if err != nil {
		return err
	}
	_, err = r.a1.Call(ctx, req)
	return err
}

// CollectBSPower pulls the latest vBS power reading over O1.
func (r *NonRTRIC) CollectBSPower(ctx context.Context) (KPIReport, error) {
	resp, err := r.a1.Call(ctx, Message{Type: TypeO1Collect})
	if err != nil {
		return KPIReport{}, err
	}
	var kpi KPIReport
	if err := resp.Decode(&kpi); err != nil {
		return KPIReport{}, err
	}
	return kpi, nil
}

// CollectContext pulls the slice context.
func (r *NonRTRIC) CollectContext(ctx context.Context) (ContextReport, error) {
	resp, err := r.a1.Call(ctx, Message{Type: TypeE2Context})
	if err != nil {
		return ContextReport{}, err
	}
	var rep ContextReport
	if err := resp.Decode(&rep); err != nil {
		return ContextReport{}, err
	}
	return rep, nil
}
