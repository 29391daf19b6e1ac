package oran

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// A1 Policy Management Service lifecycle (O-RAN.WG2.A1AP): beyond policy
// creation, the non-RT RIC can query, enumerate, and delete policy
// instances held at the near-RT RIC.
const (
	TypeA1PolicyQuery  = "a1.policy.query"
	TypeA1PolicyList   = "a1.policy.list"
	TypeA1PolicyDelete = "a1.policy.delete"
)

// PolicyRef addresses one policy instance.
type PolicyRef struct {
	PolicyID string `json:"policyId"`
}

// PolicyList enumerates policy instances.
type PolicyList struct {
	PolicyIDs []string `json:"policyIds"`
}

// policyStore is the near-RT RIC's policy database.
type policyStore struct {
	mu       sync.Mutex
	policies map[string]RadioPolicy
	active   string // the most recently enforced policy instance
}

func (s *policyStore) put(p RadioPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.policies == nil {
		s.policies = make(map[string]RadioPolicy)
	}
	s.policies[p.PolicyID] = p
	s.active = p.PolicyID
}

func (s *policyStore) get(id string) (RadioPolicy, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.policies[id]
	return p, ok
}

func (s *policyStore) delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.policies[id]; !ok {
		return false
	}
	delete(s.policies, id)
	if s.active == id {
		s.active = ""
	}
	return true
}

func (s *policyStore) list() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.policies))
	for id := range s.policies {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// handlePolicyLifecycle serves the query/list/delete messages from the
// near-RT RIC's policy store. Returns (handled, response, error).
func (r *NearRTRIC) handlePolicyLifecycle(req Message) (bool, Message, error) {
	switch req.Type {
	case TypeA1PolicyQuery:
		var ref PolicyRef
		if err := req.Decode(&ref); err != nil {
			return true, Message{}, err
		}
		p, ok := r.store.get(ref.PolicyID)
		if !ok {
			return true, Message{}, fmt.Errorf("oran: unknown policy %q", ref.PolicyID)
		}
		resp, err := NewMessage(TypeA1PolicyQuery, p)
		return true, resp, err
	case TypeA1PolicyList:
		resp, err := NewMessage(TypeA1PolicyList, PolicyList{PolicyIDs: r.store.list()})
		return true, resp, err
	case TypeA1PolicyDelete:
		var ref PolicyRef
		if err := req.Decode(&ref); err != nil {
			return true, Message{}, err
		}
		if !r.store.delete(ref.PolicyID) {
			return true, Message{}, fmt.Errorf("oran: unknown policy %q", ref.PolicyID)
		}
		// Deleting the active policy reverts the vBS to its unconstrained
		// defaults, as a removed A1 policy no longer binds the scheduler.
		if r.store.active == "" {
			revert, err := NewMessage(TypeE2Policy, RadioPolicy{PolicyID: "default", Airtime: 1, MCS: 1})
			if err != nil {
				return true, Message{}, err
			}
			if _, err := r.e2.Call(context.Background(), revert); err != nil {
				return true, Message{}, err
			}
		}
		resp, err := NewMessage(TypeAck, Ack{OK: true})
		return true, resp, err
	}
	return false, Message{}, nil
}

// QueryPolicy fetches a policy instance from the near-RT RIC.
func (r *NonRTRIC) QueryPolicy(ctx context.Context, id string) (RadioPolicy, error) {
	req, err := NewMessage(TypeA1PolicyQuery, PolicyRef{PolicyID: id})
	if err != nil {
		return RadioPolicy{}, err
	}
	resp, err := r.a1.Call(ctx, req)
	if err != nil {
		return RadioPolicy{}, err
	}
	var p RadioPolicy
	if err := resp.Decode(&p); err != nil {
		return RadioPolicy{}, err
	}
	return p, nil
}

// ListPolicies enumerates the policy instances held at the near-RT RIC.
func (r *NonRTRIC) ListPolicies(ctx context.Context) ([]string, error) {
	resp, err := r.a1.Call(ctx, Message{Type: TypeA1PolicyList})
	if err != nil {
		return nil, err
	}
	var list PolicyList
	if err := resp.Decode(&list); err != nil {
		return nil, err
	}
	return list.PolicyIDs, nil
}

// DeletePolicy removes a policy instance; deleting the active one reverts
// the vBS to unconstrained radio defaults.
func (r *NonRTRIC) DeletePolicy(ctx context.Context, id string) error {
	req, err := NewMessage(TypeA1PolicyDelete, PolicyRef{PolicyID: id})
	if err != nil {
		return err
	}
	_, err = r.a1.Call(ctx, req)
	return err
}
