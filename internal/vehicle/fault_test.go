package vehicle

// Fault-resilience unit tests: exit-report retransmission backoff, the
// grant-expiry failsafe backstop, and the stop-line no-grant latch.

import (
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/trace"
)

// TestExitRetransmitBackoffGrows pins the exit-report retry policy: with
// the IM never acknowledging, retransmission gaps must grow exponentially
// and cap at MaxTimeout — a stalled IM is not flooded.
func TestExitRetransmitBackoffGrows(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		te := req.TransmitTime + 0.15
		de := req.DistToEntry - req.CurrentSpeed*0.15
		eta, _ := kinematics.EarliestArrival(de, req.CurrentSpeed, req.Params)
		h.net.Send(network.Message{Kind: network.KindResponse, From: im.EndpointName,
			To: msg.From, Payload: im.Response{Kind: im.RespTimed, Seq: req.Seq,
				TargetSpeed: 3, ExecuteAt: te, ArriveAt: te + eta}})
	}
	h.agent.Start()
	h.drive(3.0)
	h.agent.NotifyExit()
	// The harness IM records exits but never acks them.
	h.drive(10.0)
	exits := h.kinds(network.KindExit)
	if len(exits) < 4 {
		t.Fatalf("exit retransmissions = %d, want several", len(exits))
	}
	maxT := h.agent.cfg.MaxTimeout
	prev := -1.0
	for i := 1; i < len(exits); i++ {
		gap := exits[i].SentAt - exits[i-1].SentAt
		if gap < prev-1e-9 {
			t.Errorf("retransmit gap %d shrank: %v after %v", i, gap, prev)
		}
		if gap > maxT+1e-9 {
			t.Errorf("retransmit gap %d = %v exceeds MaxTimeout %v", i, gap, maxT)
		}
		prev = gap
	}
	// The first two gaps must show the doubling.
	g1 := exits[1].SentAt - exits[0].SentAt
	g2 := exits[2].SentAt - exits[1].SentAt
	if g2 < 1.5*g1 {
		t.Errorf("backoff not doubling: %v then %v", g1, g2)
	}
}

// TestGrantExpiryFailsafe exercises the TTL backstop directly: an agent in
// Follow holding a long-expired arrival (every renegotiation lost to the
// fault, re-plan quiet), blocked mid-approach by a stopped leader, must
// abandon the plan, record a failsafe, and re-enter the request loop.
func TestGrantExpiryFailsafe(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	rec := trace.NewFull()
	h.agent.cfg.GrantTTL = 0.3
	h.agent.cfg.Trace = rec
	// A phantom stopped leader just ahead keeps the vehicle pinned well
	// short of the stop line, where a stop is still possible.
	h.agent.leader = func() (LeaderInfo, bool) {
		return LeaderInfo{Gap: 0.05, Speed: 0, Decel: h.pl.Params.MaxDecel}, true
	}
	h.agent.Start()
	h.drive(0.2)

	// Place the agent in the backstop state: following a grant whose ToA is
	// long past, with the periodic re-plan quiet for the next 0.4 s.
	now := h.sim.Now()
	h.agent.state = StateFollow
	h.agent.hasArrival = true
	h.agent.hasProfile = true
	h.agent.profile = kinematics.HoldProfile(now, 0, 1)
	h.agent.originS = h.pl.MeasuredS()
	h.agent.tArriveRef = now - 1.0 // expired well past GrantTTL
	h.agent.lastPlan = now

	h.drive(0.3)
	if h.agent.Failsafes < 1 {
		t.Fatalf("Failsafes = %d, want >= 1", h.agent.Failsafes)
	}
	if h.agent.state == StateFollow {
		t.Error("agent still following the expired grant")
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == trace.KindVehFailsafe && e.Detail == "grant-expired" {
			found = true
		}
	}
	if !found {
		t.Error("no veh.failsafe grant-expired event recorded")
	}
	// The failsafe schedules a fresh request: the agent must not go silent.
	before := len(h.kinds(network.KindRequest))
	h.drive(1.0)
	if after := len(h.kinds(network.KindRequest)); after <= before {
		t.Errorf("no re-request after failsafe (requests %d -> %d)", before, after)
	}
}

// TestNoGrantLatch checks the stop-line latch: a vehicle halted at the line
// with no grant (IM silent) records exactly one no-grant failsafe per halt,
// and only when the TTL arms the fault paths.
func TestNoGrantLatch(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	rec := trace.NewFull()
	h.agent.cfg.GrantTTL = 1.5
	h.agent.cfg.Trace = rec
	h.respond = nil // IM never grants
	h.agent.Start()
	h.drive(6.0)
	if h.pl.V() > 0.01 {
		t.Fatalf("vehicle still moving at %v", h.pl.V())
	}
	events := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindVehFailsafe && e.Detail == "no-grant" {
			events++
		}
	}
	if events != 1 {
		t.Errorf("no-grant events = %d, want exactly 1 (latched)", events)
	}

	// Disarmed (clean run): the same starvation must record nothing.
	h2 := newHarness(t, im.ProtocolTimed)
	rec2 := trace.NewFull()
	h2.agent.cfg.Trace = rec2
	h2.respond = nil
	h2.agent.Start()
	h2.drive(6.0)
	for _, e := range rec2.Events() {
		if e.Kind == trace.KindVehFailsafe {
			t.Fatalf("failsafe event recorded with GrantTTL disarmed: %+v", e)
		}
	}
	if h2.agent.Failsafes != 0 {
		t.Errorf("Failsafes = %d on a clean run", h2.agent.Failsafes)
	}
}
