package aim

import (
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

func newSched(t *testing.T) *Scheduler {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cost.Jitter = 0
	s, err := New(x, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func proposal(id int64, a intersection.Approach, toa, v, dt float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		ProposedToA:  toa,
		CrossSpeed:   v,
		CurrentSpeed: v,
		DistToEntry:  dt,
		Params:       kinematics.ScaleModelParams(),
	}
}

func TestAIMAcceptsFreeProposal(t *testing.T) {
	s := newSched(t)
	resp, cost := s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0))
	if resp.Kind != im.RespAccept {
		t.Fatalf("Kind = %v", resp.Kind)
	}
	if resp.ArriveAt != 1.1 || resp.TargetSpeed != 3.0 {
		t.Errorf("echoed grant = %+v", resp)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	if s.Accepts != 1 || s.Rejections != 0 {
		t.Errorf("counters = %d/%d", s.Accepts, s.Rejections)
	}
	if s.HeldPairs() == 0 {
		t.Error("no tiles reserved")
	}
	if s.Name() != PolicyName {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestAIMRejectsConflictingProposal(t *testing.T) {
	s := newSched(t)
	if r, _ := s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0)); r.Kind != im.RespAccept {
		t.Fatal("setup accept failed")
	}
	// Same window, crossing movement: reject.
	resp, _ := s.HandleRequest(0.15, proposal(2, intersection.North, 1.15, 3.0, 3.0))
	if resp.Kind != im.RespReject {
		t.Fatalf("conflicting proposal accepted")
	}
	if s.Rejections != 1 {
		t.Errorf("Rejections = %d", s.Rejections)
	}
	// A later window on the same movement is fine.
	resp, _ = s.HandleRequest(0.2, proposal(2, intersection.North, 3.5, 3.0, 3.0))
	if resp.Kind != im.RespAccept {
		t.Fatalf("disjoint proposal rejected")
	}
}

func TestAIMYesNoOnly(t *testing.T) {
	// The defining QB-IM property: the IM never proposes an alternative —
	// a rejected vehicle learns nothing but "no".
	s := newSched(t)
	s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0))
	resp, _ := s.HandleRequest(0.15, proposal(2, intersection.North, 1.15, 3.0, 3.0))
	if resp.Kind != im.RespReject {
		t.Fatal("expected reject")
	}
	if resp.ArriveAt != 0 && resp.ArriveAt == 1.15 {
		t.Errorf("reject leaked scheduling info: %+v", resp)
	}
}

func TestAIMExitReleasesTiles(t *testing.T) {
	s := newSched(t)
	s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0))
	held := s.HeldPairs()
	s.HandleExit(2.0, 1)
	if s.HeldPairs() != 0 {
		t.Errorf("HeldPairs after exit = %d (was %d)", s.HeldPairs(), held)
	}
	// Window is free again.
	resp, _ := s.HandleRequest(2.1, proposal(2, intersection.North, 1.15+2, 3.0, 3.0))
	if resp.Kind != im.RespAccept {
		t.Error("released window still blocked")
	}
}

func TestAIMReRequestSupersedes(t *testing.T) {
	s := newSched(t)
	s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0))
	first := s.HeldPairs()
	// The same vehicle re-proposes later: old tiles must be released.
	resp, _ := s.HandleRequest(0.5, proposal(1, intersection.East, 2.5, 3.0, 3.0))
	if resp.Kind != im.RespAccept {
		t.Fatal("re-proposal rejected")
	}
	// The original window must now be free for someone else.
	resp, _ = s.HandleRequest(0.6, proposal(2, intersection.North, 1.15, 3.0, 3.0))
	if resp.Kind != im.RespAccept {
		t.Errorf("superseded window still blocked (held %d then %d)", first, s.HeldPairs())
	}
}

func TestAIMLaneOrderRejection(t *testing.T) {
	s := newSched(t)
	// The farther vehicle (2) proposes while the closer one (1) holds no
	// reservation: reject — it cannot pass its leader.
	s.order.Update(1, intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight}, 1.0)
	resp, _ := s.HandleRequest(0.1, proposal(2, intersection.East, 1.5, 3.0, 3.0))
	if resp.Kind != im.RespReject {
		t.Error("rear vehicle accepted past unreserved leader")
	}
}

func TestAIMCommittedRebookUnconditional(t *testing.T) {
	s := newSched(t)
	s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0))
	// A committed vehicle reports a truth overlapping the existing grant:
	// the IM must accept (the crossing is a fact) and re-reserve.
	r := proposal(2, intersection.North, 1.12, 3.0, 0.5)
	r.Committed = true
	resp, _ := s.HandleRequest(0.9, r)
	if resp.Kind != im.RespAccept {
		t.Errorf("committed truth rejected: %+v", resp)
	}
}

func TestAIMRejectsDegenerateProposals(t *testing.T) {
	s := newSched(t)
	bad := proposal(1, intersection.East, 1.1, 0, 3.0) // zero speed
	if r, _ := s.HandleRequest(0.1, bad); r.Kind != im.RespReject {
		t.Error("zero-speed proposal accepted")
	}
	past := proposal(1, intersection.East, -5, 3.0, 3.0)
	if r, _ := s.HandleRequest(0.1, past); r.Kind != im.RespReject {
		t.Error("past proposal accepted")
	}
	unknown := proposal(1, intersection.East, 1.1, 3.0, 3.0)
	unknown.Movement.Lane = 7
	if r, _ := s.HandleRequest(0.1, unknown); r.Kind != im.RespReject {
		t.Error("unknown movement accepted")
	}
}

func TestAIMExitMergeSeparation(t *testing.T) {
	s := newSched(t)
	// Eastbound straight and northbound right both exit east on lane 0.
	s.HandleRequest(0.1, proposal(1, intersection.East, 2.0, 3.0, 3.0))
	merging := im.Request{
		VehicleID: 2, Seq: 1,
		Movement:     intersection.MovementID{Approach: intersection.North, Lane: 0, Turn: intersection.Right},
		ProposedToA:  2.0, // exits at nearly the same moment
		CrossSpeed:   3.0,
		CurrentSpeed: 3.0,
		DistToEntry:  3.0,
		Params:       kinematics.ScaleModelParams(),
	}
	resp, _ := s.HandleRequest(0.2, merging)
	if resp.Kind != im.RespReject {
		t.Error("overlapping exit merge accepted")
	}
}

func TestNewValidation(t *testing.T) {
	x, _ := intersection.New(intersection.ScaleModelConfig())
	cfg := DefaultConfig()
	cfg.TimeStep = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero TimeStep accepted")
	}
	cfg = DefaultConfig()
	cfg.GridN = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero GridN accepted")
	}
	cfg = DefaultConfig()
	cfg.Spec.MaxSpeed = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRegistryEntry: the registry builds AIM from its -policy-opt knobs and
// rejects, naming the knob, values that would hang a sweep or leave the
// tile grid unused.
func TestRegistryEntry(t *testing.T) {
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Protocol != im.ProtocolQuery {
		t.Errorf("protocol %v, want query", e.Protocol)
	}
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func(params map[string]string) (*Scheduler, error) {
		opts := im.PolicyOptions{Spec: safety.TestbedSpec(), Params: params}
		s, err := e.Factory(x, opts, rand.New(rand.NewSource(1)))
		if err != nil {
			return nil, err
		}
		return s.(*Scheduler), nil
	}
	s, err := build(map[string]string{"aim.grid": "12", "aim.step": "0.02"})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.GridN != 12 || c.TimeStep != 0.02 {
		t.Errorf("knobs did not reach the config: %+v", c)
	}
	for _, tc := range []struct {
		params  map[string]string
		wantErr string
	}{
		{map[string]string{"aim.grid": "0"}, "tile grid size 0"},
		{map[string]string{"aim.grid": "33"}, "aim.grid"},
		{map[string]string{"aim.step": "0"}, "aim.step"},
		{map[string]string{"aim.step": "-0.05"}, "aim.step"},
		{map[string]string{"aim.step": "NaN"}, "aim.step"},
		{map[string]string{"aim.step": "Inf"}, "aim.step"},
		{map[string]string{"aim.slack": "1"}, "unknown parameter aim.slack"},
	} {
		if _, err := build(tc.params); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.params, err, tc.wantErr)
		}
	}
	if _, err := build(map[string]string{"aim.grid": "32"}); err != nil {
		t.Errorf("aim.grid=32: %v", err)
	}
}

// TestAIMFarFutureProposal: a proposal far beyond every held reservation,
// as a malformed served request may carry, is judged like any other and
// leaves near-term proposals unaffected.
func TestAIMFarFutureProposal(t *testing.T) {
	s := newSched(t)
	if r, _ := s.HandleRequest(0.1, proposal(1, intersection.East, 1.1, 3.0, 3.0)); r.Kind != im.RespAccept {
		t.Fatal("near proposal rejected")
	}
	held := s.HeldPairs()
	if r, _ := s.HandleRequest(0.1, proposal(2, intersection.North, 1e6, 3.0, 3.0)); r.Kind != im.RespAccept {
		t.Fatal("far proposal rejected")
	}
	if s.HeldPairs() <= held {
		t.Errorf("far proposal holds no tiles: %d pairs, %d before", s.HeldPairs(), held)
	}
	if r, _ := s.HandleRequest(0.15, proposal(3, intersection.South, 1.15, 3.0, 3.0)); r.Kind != im.RespReject {
		t.Error("proposal conflicting with the near reservation accepted")
	}
	s.HandleExit(1e6, 2)
	if s.HeldPairs() != held {
		t.Errorf("after the far vehicle's exit %d pairs held, want %d", s.HeldPairs(), held)
	}
}
