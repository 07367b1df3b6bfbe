package vehicle

import (
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/des"
	"crossroads/internal/geom"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/timesync"
)

// harness wires a single agent to a scripted IM endpoint.
type harness struct {
	sim   *des.Simulator
	net   *network.Network
	agent *Agent
	pl    *plant.Plant
	m     *intersection.Movement

	imInbox []network.Message
	// respond, when set, is called for each request received at the IM.
	respond func(msg network.Message)
}

func newHarness(t *testing.T, protocol im.Protocol) *harness {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := x.Movement(intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight})
	sim := des.New()
	net := network.New(sim, rand.New(rand.NewSource(1)), nil, network.ConstantDelay{D: 0.002}, 0)
	params := kinematics.ScaleModelParams()
	pl, err := plant.New(m.Path, params, 0, params.MaxSpeed, plant.NoNoise(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := timesync.NewSyncedClock(timesync.Clock{Offset: 0.05}, 8)
	cfg := DeriveConfig(protocol, 0, safety.TestbedSpec(), params)
	h := &harness{sim: sim, net: net, pl: pl, m: m}
	agent, err := New(1, m, pl, clk, cfg, sim, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.agent = agent
	net.Register(im.EndpointName, func(now float64, msg network.Message) {
		h.imInbox = append(h.imInbox, msg)
		switch msg.Kind {
		case network.KindSyncRequest:
			p := msg.Payload.(im.SyncPayload)
			p.T2, p.T3 = now, now
			net.Send(network.Message{Kind: network.KindSyncResponse, From: im.EndpointName,
				To: msg.From, Payload: p})
		case network.KindRequest:
			if h.respond != nil {
				h.respond(msg)
			}
		}
	})
	return h
}

// drive advances the world: physics at 10 ms plus the DES events.
func (h *harness) drive(seconds float64) {
	n := int(seconds / 0.01)
	for i := 0; i < n; i++ {
		vCmd := h.agent.ControlStep(h.sim.Now(), 0.01)
		h.pl.Step(vCmd, 0.01)
		h.sim.RunFor(0.01)
	}
}

func (h *harness) kinds(k network.Kind) []network.Message {
	var out []network.Message
	for _, m := range h.imInbox {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

func TestAgentSyncThenRequest(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	h.agent.Start()
	h.drive(0.5)
	syncs := h.kinds(network.KindSyncRequest)
	if len(syncs) != h.agent.cfg.NumSyncExchanges {
		t.Errorf("sync exchanges = %d, want %d", len(syncs), h.agent.cfg.NumSyncExchanges)
	}
	reqs := h.kinds(network.KindRequest)
	if len(reqs) == 0 {
		t.Fatal("no request sent after sync")
	}
	req := reqs[0].Payload.(im.Request)
	if req.CurrentSpeed != 3.0 {
		t.Errorf("VC = %v", req.CurrentSpeed)
	}
	if req.TransmitTime == 0 {
		t.Error("Crossroads request missing TT")
	}
	// The synchronized timestamp must be near reference time, not the raw
	// 50 ms-offset clock.
	if math.Abs(req.TransmitTime-reqs[0].SentAt) > 0.005 {
		t.Errorf("TT = %v at reference %v: sync not applied", req.TransmitTime, reqs[0].SentAt)
	}
}

func TestAgentRetransmitsWithBackoff(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	h.respond = nil // IM never answers
	h.agent.Start()
	h.drive(3.0)
	reqs := h.kinds(network.KindRequest)
	if len(reqs) < 3 {
		t.Fatalf("requests = %d, want several retransmissions", len(reqs))
	}
	// Gaps must grow (exponential backoff).
	g1 := reqs[1].SentAt - reqs[0].SentAt
	g2 := reqs[2].SentAt - reqs[1].SentAt
	if g2 <= g1 {
		t.Errorf("backoff not growing: %v then %v", g1, g2)
	}
	if h.agent.Retries < 2 {
		t.Errorf("Retries = %d", h.agent.Retries)
	}
}

func TestAgentSafeStopWithoutGrant(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	h.respond = nil // never granted
	h.agent.Start()
	h.drive(4.0)
	// Vehicle must be stopped with its front bumper before the box entry.
	if h.pl.V() > 0.01 {
		t.Errorf("vehicle still moving at %v", h.pl.V())
	}
	front := h.pl.S() + h.pl.Params.Length/2
	if front > h.m.EnterS {
		t.Errorf("front bumper %v past entry %v", front, h.m.EnterS)
	}
	if h.agent.State() == StateFollow || h.agent.State() == StateDone {
		t.Errorf("state = %v", h.agent.State())
	}
}

func TestAgentFollowsTimedCommand(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	var granted im.Response
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		te := req.TransmitTime + 0.15
		de := req.DistToEntry - req.CurrentSpeed*0.15
		// Grant an arrival 0.8 s later than earliest: forces a dip.
		eta, _ := kinematics.EarliestArrival(de, req.CurrentSpeed, req.Params)
		granted = im.Response{
			Kind: im.RespTimed, Seq: req.Seq,
			TargetSpeed: 2.0, ExecuteAt: te, ArriveAt: te + eta + 0.8,
		}
		h.net.Send(network.Message{Kind: network.KindResponse, From: im.EndpointName,
			To: msg.From, Payload: granted})
	}
	h.agent.Start()
	h.drive(0.5)
	if h.agent.State() != StateFollow {
		t.Fatalf("state = %v", h.agent.State())
	}
	// Drive until the center crosses the entry; compare to the granted ToA.
	crossed := -1.0
	for i := 0; i < 600 && crossed < 0; i++ {
		vCmd := h.agent.ControlStep(h.sim.Now(), 0.01)
		h.pl.Step(vCmd, 0.01)
		h.sim.RunFor(0.01)
		if h.pl.S() >= h.m.EnterS {
			crossed = h.sim.Now()
		}
	}
	if crossed < 0 {
		t.Fatal("never entered the box")
	}
	// granted.ArriveAt is in synchronized time == reference here (offset
	// corrected); allow the sensing-buffer tolerance.
	if math.Abs(crossed-granted.ArriveAt) > 0.08 {
		t.Errorf("entered at %v, granted %v", crossed, granted.ArriveAt)
	}
}

func TestAgentStopCommandThenRetry(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	grants := 0
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		grants++
		h.net.Send(network.Message{Kind: network.KindResponse, From: im.EndpointName,
			To: msg.From, Payload: im.Response{Kind: im.RespVelocity, Seq: req.Seq, TargetSpeed: 0}})
	}
	h.agent.Start()
	h.drive(3.0)
	if grants < 2 {
		t.Errorf("stop command produced no retries: %d requests answered", grants)
	}
	if h.pl.V() > 0.01 {
		t.Errorf("vehicle moving at %v despite stop commands", h.pl.V())
	}
}

func TestAgentAIMRejectSlowsAndRetries(t *testing.T) {
	h := newHarness(t, im.ProtocolQuery)
	var proposals []im.Request
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		proposals = append(proposals, req)
		h.net.Send(network.Message{Kind: network.KindReject, From: im.EndpointName,
			To: msg.From, Payload: im.Response{Kind: im.RespReject, Seq: req.Seq}})
	}
	h.agent.Start()
	h.drive(2.5)
	if len(proposals) < 3 {
		t.Fatalf("proposals = %d, want repeated re-requests", len(proposals))
	}
	// Later proposals come at lower speeds (Algorithm 6's slow-down).
	if !(proposals[len(proposals)-1].CurrentSpeed < proposals[0].CurrentSpeed) {
		t.Errorf("speed did not decrease: %v -> %v",
			proposals[0].CurrentSpeed, proposals[len(proposals)-1].CurrentSpeed)
	}
}

func TestAgentAIMAcceptHoldsSpeed(t *testing.T) {
	h := newHarness(t, im.ProtocolQuery)
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		h.net.Send(network.Message{Kind: network.KindAccept, From: im.EndpointName,
			To: msg.From, Payload: im.Response{
				Kind: im.RespAccept, Seq: req.Seq,
				TargetSpeed: req.CrossSpeed, ArriveAt: req.ProposedToA,
			}})
	}
	h.agent.Start()
	h.drive(0.6)
	if h.agent.State() != StateFollow {
		t.Fatalf("state = %v", h.agent.State())
	}
	// Accepted at speed: holds ~3 m/s until the box.
	if math.Abs(h.pl.V()-3.0) > 0.05 {
		t.Errorf("V = %v, want held 3.0", h.pl.V())
	}
}

func TestAgentStaleResponseIgnored(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	h.respond = func(msg network.Message) {
		req := msg.Payload.(im.Request)
		// Reply with a WRONG sequence number.
		h.net.Send(network.Message{Kind: network.KindResponse, From: im.EndpointName,
			To: msg.From, Payload: im.Response{
				Kind: im.RespTimed, Seq: req.Seq + 100,
				TargetSpeed: 3, ExecuteAt: req.TransmitTime + 0.15, ArriveAt: req.TransmitTime + 2,
			}})
	}
	h.agent.Start()
	h.drive(1.0)
	if h.agent.State() == StateFollow {
		t.Error("agent followed a stale response")
	}
}

func TestAgentExitNotification(t *testing.T) {
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
	h.agent.NotifyExit() // idempotent
	h.sim.RunFor(0.01)   // deliver the in-flight exit message
	exits := h.kinds(network.KindExit)
	if len(exits) != 1 {
		t.Fatalf("exit notifications = %d, want 1", len(exits))
	}
	p := exits[0].Payload.(im.ExitPayload)
	if p.VehicleID != 1 || p.ExitTimestamp == 0 {
		t.Errorf("exit payload = %+v", p)
	}
	if h.agent.State() != StateDone {
		t.Errorf("state = %v", h.agent.State())
	}
}

func TestAgentCarFollowingBrakes(t *testing.T) {
	h := newHarness(t, im.ProtocolTimed)
	// A stopped phantom leader 2 m ahead.
	h.agent.leader = func() (LeaderInfo, bool) {
		gap := 2.0 - h.pl.S()
		return LeaderInfo{Gap: gap, Speed: 0, Decel: 3}, true
	}
	h.agent.Start()
	h.drive(3.0)
	if h.pl.V() > 0.01 {
		t.Errorf("did not stop for leader: v=%v", h.pl.V())
	}
	if h.pl.S() > 2.0-h.agent.cfg.MinGap+0.05 {
		t.Errorf("stopped at %v, closer than MinGap %v to leader at 2.0", h.pl.S(), h.agent.cfg.MinGap)
	}
}

func TestSafeFollowSpeed(t *testing.T) {
	// Zero free gap behind a stopped leader: must be zero.
	if v := SafeFollowSpeed(0, 0, 3, 3, 0.25); v != 0 {
		t.Errorf("v = %v, want 0", v)
	}
	// Large gap: positive and growing with gap.
	v1 := SafeFollowSpeed(5, 0, 3, 3, 0.25)
	v2 := SafeFollowSpeed(10, 0, 3, 3, 0.25)
	if !(v2 > v1 && v1 > 0) {
		t.Errorf("not monotone: %v, %v", v1, v2)
	}
	// A moving leader allows more speed than a stopped one.
	v3 := SafeFollowSpeed(5, 3, 3, 3, 0.25)
	if v3 <= v1 {
		t.Errorf("moving leader %v <= stopped %v", v3, v1)
	}
	// The invariant: from v, after tau reaction and full braking, the
	// follower travels no farther than free + leader's stopping distance.
	for _, free := range []float64{0.5, 2, 10} {
		for _, lv := range []float64{0, 1, 3} {
			v := SafeFollowSpeed(free, lv, 3, 3, 0.25)
			travel := v*0.25 + v*v/(2*3)
			room := free + lv*lv/(2*3)
			if travel > room+1e-9 {
				t.Errorf("free=%v lv=%v: travel %v exceeds room %v", free, lv, travel, room)
			}
		}
	}
	// Nonpositive leader decel falls back to the follower's.
	if v := SafeFollowSpeed(5, 3, 0, 3, 0.25); v <= 0 {
		t.Errorf("fallback decel failed: %v", v)
	}
}

func TestDeriveConfigScales(t *testing.T) {
	scale := DeriveConfig(im.ProtocolTimed, 0, safety.TestbedSpec(), kinematics.ScaleModelParams())
	full := DeriveConfig(im.ProtocolTimed, 0, safety.FullScaleSpec(), kinematics.FullScaleParams())
	if !(full.MinGap > scale.MinGap) {
		t.Errorf("MinGap did not scale: %v vs %v", full.MinGap, scale.MinGap)
	}
	if !(full.ReRequestLag > scale.ReRequestLag) {
		t.Errorf("ReRequestLag did not scale: %v vs %v", full.ReRequestLag, scale.ReRequestLag)
	}
	if !(full.StopLineOffset > scale.StopLineOffset) {
		t.Errorf("StopLineOffset did not scale: %v vs %v", full.StopLineOffset, scale.StopLineOffset)
	}
	if scale.WCRTD != 0.150 {
		t.Errorf("WCRTD = %v", scale.WCRTD)
	}
}

// TestDeriveConfigBudgetsReplyHold pins how a policy's reply hold reaches
// the agent: added to the response timeout and the command latency, and
// absent when the hold is zero.
func TestDeriveConfigBudgetsReplyHold(t *testing.T) {
	spec, params := safety.TestbedSpec(), kinematics.ScaleModelParams()
	plain := DeriveConfig(im.ProtocolTimed, 0, spec, params)
	if plain.ResponseTimeout != 0 || plain.CommandLatency != spec.WorstRTD {
		t.Errorf("hold 0: ResponseTimeout %v, CommandLatency %v; want 0 and %v",
			plain.ResponseTimeout, plain.CommandLatency, spec.WorstRTD)
	}
	held := DeriveConfig(im.ProtocolTimed, 0.25, spec, params)
	if held.ResponseTimeout != 0.25+spec.WorstRTD+0.05 || held.CommandLatency != 0.25+spec.WorstRTD {
		t.Errorf("hold 0.25: ResponseTimeout %v, CommandLatency %v", held.ResponseTimeout, held.CommandLatency)
	}
	held.ResponseTimeout, held.CommandLatency = plain.ResponseTimeout, plain.CommandLatency
	if held != plain {
		t.Errorf("the hold changed more than the two budgets:\n%+v\n%+v", held, plain)
	}
}

func TestPolicyAndStateStrings(t *testing.T) {
	for s := StateSync; s <= StateDone; s++ {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
	if State(9).String() != "state(9)" {
		t.Errorf("unknown state = %q", State(9).String())
	}
}

func TestNewAgentValidation(t *testing.T) {
	if _, err := New(1, nil, nil, nil, Config{}, nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestAppendBoxAccel(t *testing.T) {
	params := kinematics.ScaleModelParams()
	prof := kinematics.HoldProfile(0, 1.5, 2) // ends at 1.5 m/s
	got := appendBoxAccel(prof, params)
	if got.FinalVelocity() != params.MaxSpeed {
		t.Errorf("final velocity = %v", got.FinalVelocity())
	}
	// Already at max: unchanged.
	full := kinematics.HoldProfile(0, 3, 2)
	if got := appendBoxAccel(full, params); len(got.Phases) != len(full.Phases) {
		t.Error("max-speed profile extended")
	}
}

// Ensure geometry import is exercised (paths used by harness).
var _ = geom.V
