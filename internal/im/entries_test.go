package im_test

import (
	"testing"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/im/aim"
	"crossroads/internal/im/auction"
	"crossroads/internal/im/batch"
	"crossroads/internal/im/dot"
	"crossroads/internal/im/signalized"
	"crossroads/internal/im/vtim"
)

// TestBuiltinEntries pins the wire protocol and reply hold each built-in
// policy declares: the facts the vehicle agent is configured from.
func TestBuiltinEntries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto im.Protocol
		hold  float64
	}{
		{vtim.PolicyName, im.ProtocolVelocity, 0},
		{aim.PolicyName, im.ProtocolQuery, 0},
		{core.PolicyName, im.ProtocolTimed, 0},
		{batch.PolicyName, im.ProtocolTimed, batch.DefaultConfig().Window},
		{dot.PolicyName, im.ProtocolTimed, 0},
		{signalized.PolicyName, im.ProtocolTimed, 0},
		{auction.PolicyName, im.ProtocolTimed, 0},
	} {
		e, err := im.LookupPolicy(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Protocol != tc.proto || e.ReplyHold != tc.hold || e.Factory == nil {
			t.Errorf("%s: protocol %v hold %v factory set %v; want %v, %v, true",
				tc.name, e.Protocol, e.ReplyHold, e.Factory != nil, tc.proto, tc.hold)
		}
	}
	if h := batch.DefaultConfig().Window; h != 0.25 {
		t.Errorf("batch window %v, want 0.25 s", h)
	}
}
