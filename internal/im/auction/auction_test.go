package auction

import (
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// build constructs a policy the way every harness does: through its
// registry entry, with the given -policy-opt knobs.
func build(t *testing.T, policy string, params map[string]string) (im.Scheduler, error) {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := im.LookupPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	ref := kinematics.ScaleModelParams()
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), RefLength: ref.Length, RefWidth: ref.Width, Params: params}
	return e.Factory(x, opts, rand.New(rand.NewSource(1)))
}

func mustBuild(t *testing.T, policy string, params map[string]string) im.Scheduler {
	t.Helper()
	s, err := build(t, policy, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func req(id int64, a intersection.Approach, tt float64, priority int) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 3, DistToEntry: 3, TransmitTime: tt, Priority: priority,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestRegistryEntry(t *testing.T) {
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Protocol != im.ProtocolTimed || e.ReplyHold != 0 {
		t.Errorf("entry: protocol %v, hold %v; want timed, 0", e.Protocol, e.ReplyHold)
	}
	if d := DefaultConfig(); d.Emergency != 16 || d.Core != core.DefaultConfig() {
		t.Errorf("defaults %+v", d)
	}
	for _, tc := range []struct {
		params  map[string]string
		wantErr string
	}{
		{nil, ""},
		{map[string]string{"auction.emergency": "4"}, ""},
		{map[string]string{"auction.emergency": "-1"}, "Emergency -1"},
		{map[string]string{"auction.emergency": "often"}, "auction.emergency"},
		{map[string]string{"auction.reserve": "1"}, "unknown parameter auction.reserve"},
	} {
		_, err := build(t, PolicyName, tc.params)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.params, err, tc.wantErr)
		}
	}
}

// TestUncontestedMatchesCrossroads: with no one to outbid, the auction is
// the Crossroads planner, grant for grant.
func TestUncontestedMatchesCrossroads(t *testing.T) {
	a, c := mustBuild(t, PolicyName, nil), mustBuild(t, core.PolicyName, nil)
	for i, r := range []im.Request{
		req(1, intersection.East, 0.04, 0),
		req(2, intersection.North, 3.04, 2),
		req(3, intersection.West, 6.04, 0),
	} {
		got, _ := a.HandleRequest(r.TransmitTime+0.01, r)
		want, _ := c.HandleRequest(r.TransmitTime+0.01, r)
		if got != want || got.Kind != im.RespTimed {
			t.Errorf("request %d: auction %+v, crossroads %+v", i+1, got, want)
		}
	}
}

// contest sends two conflicting requests at the same instant, the
// regular vehicle 1 first, then vehicle 2, and returns vehicle 2's grant.
func contest(t *testing.T, s im.Scheduler, priority2 int) im.Response {
	t.Helper()
	if r, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04, 0)); r.Kind != im.RespTimed {
		t.Fatalf("first request: %+v", r)
	}
	r, _ := s.HandleRequest(0.05, req(2, intersection.North, 0.04, priority2))
	if r.Kind != im.RespTimed {
		t.Fatalf("second request: %+v", r)
	}
	return r
}

// TestHigherBidWinsContestedSlot: the second of two conflicting requests
// is queued behind the first under Crossroads, but takes the slot first
// when it bids higher, whether by its own priority class or by the
// emergency knob; the outbid vehicle receives a revised, later grant.
func TestHigherBidWinsContestedSlot(t *testing.T) {
	fifo := contest(t, mustBuild(t, core.PolicyName, nil), 0)
	for _, tc := range []struct {
		name     string
		params   map[string]string
		priority int
		wins     bool
	}{
		{"regular bid", map[string]string{"auction.emergency": "0"}, 0, false},
		{"priority class", map[string]string{"auction.emergency": "0"}, 2, true},
		{"emergency knob", map[string]string{"auction.emergency": "2"}, 0, true},
	} {
		s := mustBuild(t, PolicyName, tc.params)
		r := contest(t, s, tc.priority)
		pushes := s.(im.Pusher).TakePushes()
		if !tc.wins {
			if r != fifo || len(pushes) != 0 {
				t.Errorf("%s: grant %+v with %d revisions, want the Crossroads grant %+v and none",
					tc.name, r, len(pushes), fifo)
			}
			continue
		}
		if r.ArriveAt >= fifo.ArriveAt {
			t.Errorf("%s: winning bid arrives at %.3f, no earlier than the queued %.3f", tc.name, r.ArriveAt, fifo.ArriveAt)
		}
		if len(pushes) != 1 || pushes[0].VehicleID != 1 || pushes[0].Resp.ArriveAt <= r.ArriveAt {
			t.Errorf("%s: revisions %+v, want vehicle 1 moved behind %.3f", tc.name, pushes, r.ArriveAt)
		}
	}
}
