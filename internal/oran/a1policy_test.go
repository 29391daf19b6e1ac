package oran

import (
	"context"
	"testing"
)

func TestA1PolicyLifecycle(t *testing.T) {
	d, _ := newDeployment(t, 21)
	non := d.NonRT
	ctx := context.Background()

	if err := non.ApplyRadioPolicy(ctx, 0.7, 0.9); err != nil {
		t.Fatal(err)
	}
	id := RadioPolicyID

	// Query returns the deployed instance.
	p, err := non.QueryPolicy(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Airtime != 0.7 || p.MCS != 0.9 {
		t.Fatalf("queried policy %+v does not match deployment", p)
	}

	// List enumerates it.
	ids, err := non.ListPolicies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("policy list %v, want [%s]", ids, id)
	}

	// A second deployment updates the same instance.
	if err := non.ApplyRadioPolicy(ctx, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	ids, err = non.ListPolicies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("policy list %v, want [%s]", ids, id)
	}
	if p, err = non.QueryPolicy(ctx, id); err != nil {
		t.Fatal(err)
	}
	if p.Airtime != 0.5 || p.MCS != 0.5 {
		t.Fatalf("queried policy %+v does not match the update", p)
	}

	// Deleting the instance removes it.
	if err := non.DeletePolicy(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := non.QueryPolicy(ctx, id); err == nil {
		t.Fatal("deleted policy should not be queryable")
	}
}

// TestA1PolicyStoreStaysBounded: a long run keeps one policy instance at
// the near-RT RIC, not one per control period.
func TestA1PolicyStoreStaysBounded(t *testing.T) {
	d, _ := newDeployment(t, 24)
	env := d.Env()
	for i := 0; i < 50; i++ {
		if _, err := env.Measure(fullControl()); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := d.NonRT.ListPolicies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != RadioPolicyID {
		t.Fatalf("policy list after 50 periods has %d instances, want [%s]", len(ids), RadioPolicyID)
	}
}

func TestA1DeleteActivePolicyRevertsVBS(t *testing.T) {
	d, _ := newDeployment(t, 22)
	non := d.NonRT
	ctx := context.Background()

	if err := non.ApplyRadioPolicy(ctx, 0.3, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := non.DeletePolicy(ctx, RadioPolicyID); err != nil {
		t.Fatal(err)
	}
	// After the revert, a period must run under unconstrained radio
	// defaults (airtime 1): the low-airtime delay penalty disappears.
	report, err := d.DataPlane.RunPeriod()
	if err != nil {
		t.Fatal(err)
	}
	constrained := 0.0
	{
		if err := non.ApplyRadioPolicy(ctx, 0.3, 0.2); err != nil {
			t.Fatal(err)
		}
		r2, err := d.DataPlane.RunPeriod()
		if err != nil {
			t.Fatal(err)
		}
		constrained = r2.DelaySeconds
	}
	if report.DelaySeconds >= constrained {
		t.Fatalf("revert did not restore default radio policy: default %.3fs vs constrained %.3fs",
			report.DelaySeconds, constrained)
	}
}

func TestA1QueryUnknownPolicy(t *testing.T) {
	d, _ := newDeployment(t, 23)
	ctx := context.Background()
	if _, err := d.NonRT.QueryPolicy(ctx, "nope"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if err := d.NonRT.DeletePolicy(ctx, "nope"); err == nil {
		t.Fatal("expected error deleting unknown policy")
	}
}
