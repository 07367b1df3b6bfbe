package im_test

import (
	"math/rand"
	"testing"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/im/aim"
	"crossroads/internal/im/auction"
	"crossroads/internal/im/batch"
	"crossroads/internal/im/dot"
	"crossroads/internal/im/signalized"
	"crossroads/internal/im/vtim"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// TestBuiltinEntries pins the wire protocol and reply hold each built-in
// policy declares, the facts the vehicle agent is configured from, and
// whether the scheduler its factory builds joins the coordination plane
// (reports flow horizons and can be backpressured).
func TestBuiltinEntries(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := kinematics.ScaleModelParams()
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), RefLength: ref.Length, RefWidth: ref.Width}
	for _, tc := range []struct {
		name  string
		proto im.Protocol
		hold  float64
		coord bool
	}{
		{vtim.PolicyName, im.ProtocolVelocity, 0, true},
		{aim.PolicyName, im.ProtocolQuery, 0, false},
		{core.PolicyName, im.ProtocolTimed, 0, true},
		{batch.PolicyName, im.ProtocolTimed, batch.DefaultConfig().Window, true},
		{dot.PolicyName, im.ProtocolTimed, 0, false},
		{signalized.PolicyName, im.ProtocolTimed, 0, true},
		{auction.PolicyName, im.ProtocolTimed, 0, true},
	} {
		e, err := im.LookupPolicy(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Protocol != tc.proto || e.ReplyHold != tc.hold || e.Factory == nil {
			t.Errorf("%s: protocol %v hold %v factory set %v; want %v, %v, true",
				tc.name, e.Protocol, e.ReplyHold, e.Factory != nil, tc.proto, tc.hold)
			continue
		}
		s, err := e.Factory(x, opts, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, reports := s.(im.FlowReporter)
		_, defers := s.(im.CoordDeferrer)
		if coord := reports && defers; coord != tc.coord {
			t.Errorf("%s: joins the coordination plane %v (flow reporter %v, deferrer %v), want %v",
				tc.name, coord, reports, defers, tc.coord)
		}
	}
	if h := batch.DefaultConfig().Window; h != 0.25 {
		t.Errorf("batch window %v, want 0.25 s", h)
	}
}
