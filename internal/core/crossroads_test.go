package core

import (
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

func newSched(t *testing.T) *im.VTCore {
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

func req(id int64, seq int, a intersection.Approach, tt, dt, vc float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: seq,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: vc, DistToEntry: dt, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestCrossroadsGrantIsTimed(t *testing.T) {
	s := newSched(t)
	resp, cost := s.HandleRequest(0.05, req(1, 1, intersection.East, 0.04, 3.0, 3.0))
	if resp.Kind != im.RespTimed {
		t.Fatalf("Kind = %v", resp.Kind)
	}
	// TE = TT + WC-RTD.
	wantTE := 0.04 + safety.TestbedSpec().WorstRTD
	if math.Abs(resp.ExecuteAt-wantTE) > 1e-9 {
		t.Errorf("TE = %v, want %v", resp.ExecuteAt, wantTE)
	}
	// Free intersection: ToA equals the earliest arrival from
	// DE = DT - VC*WCRTD at full speed: TE + DE/Vmax.
	de := 3.0 - 3.0*0.15
	wantToA := wantTE + de/3.0
	if math.Abs(resp.ArriveAt-wantToA) > 1e-6 {
		t.Errorf("ToA = %v, want %v", resp.ArriveAt, wantToA)
	}
	if resp.TargetSpeed != 3.0 {
		t.Errorf("VT = %v, want max speed", resp.TargetSpeed)
	}
	if cost <= 0 {
		t.Errorf("cost = %v", cost)
	}
	if s.Name() != PolicyName {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestCrossroadsConflictPushesSecondVehicle(t *testing.T) {
	s := newSched(t)
	r1, _ := s.HandleRequest(0.05, req(1, 1, intersection.East, 0.04, 3.0, 3.0))
	r2, _ := s.HandleRequest(0.08, req(2, 1, intersection.North, 0.07, 3.0, 3.0))
	if r2.Kind != im.RespTimed {
		t.Fatalf("second response = %v", r2.Kind)
	}
	if r2.ArriveAt <= r1.ArriveAt {
		t.Errorf("conflicting ToAs not serialized: %v then %v", r1.ArriveAt, r2.ArriveAt)
	}
	// The pushed vehicle keeps a healthy crossing speed (dips and then
	// re-accelerates rather than crawling).
	if r2.TargetSpeed < 0.5 {
		t.Errorf("pushed VT = %v", r2.TargetSpeed)
	}
}

func TestCrossroadsExitReleasesSlot(t *testing.T) {
	s := newSched(t)
	r1, _ := s.HandleRequest(0.05, req(1, 1, intersection.East, 0.04, 3.0, 3.0))
	s.HandleExit(2.0, 1)
	// A later conflicting request gets the same free-intersection grant
	// shape (relative to its own TE).
	r2, _ := s.HandleRequest(2.05, req(2, 1, intersection.North, 2.04, 3.0, 3.0))
	d1 := r1.ArriveAt - r1.ExecuteAt
	d2 := r2.ArriveAt - r2.ExecuteAt
	if math.Abs(d1-d2) > 1e-6 {
		t.Errorf("post-exit grant delayed: %v vs %v", d2, d1)
	}
}

func TestCrossroadsLaneFIFOBlocksReorderedFollower(t *testing.T) {
	s := newSched(t)
	// The closer vehicle (1) has no booking yet; the farther one (2)
	// requests first and must be told to stop, not granted a slot it
	// cannot reach past vehicle 1.
	r := req(2, 1, intersection.East, 0.04, 3.0, 3.0)
	// Teach the scheduler about vehicle 1 being ahead: its own request
	// fails VerifySlot? Simpler: vehicle 1 requests first, gets a grant,
	// then vehicle 2 farther back must be floored past vehicle 1's ToA.
	r1, _ := s.HandleRequest(0.05, req(1, 1, intersection.East, 0.04, 2.0, 3.0))
	resp, _ := s.HandleRequest(0.06, r)
	if resp.Kind != im.RespTimed {
		t.Fatalf("follower response = %v", resp.Kind)
	}
	if resp.ArriveAt <= r1.ArriveAt {
		t.Errorf("follower ToA %v not after leader %v", resp.ArriveAt, r1.ArriveAt)
	}
}

func TestCrossroadsCommittedRebookClamps(t *testing.T) {
	s := newSched(t)
	// Fill the slot with cross traffic.
	s.HandleRequest(0.05, req(1, 1, intersection.North, 0.04, 3.0, 3.0))
	// A committed east vehicle (cannot stop: 0.8 m out at full speed)
	// reports its true state; the grant must stay within its physics:
	// from 0.8 m at 3 m/s the crossing happens within ~1 s no matter what.
	r := req(2, 1, intersection.East, 0.50, 0.8, 3.0)
	r.Committed = true
	resp, _ := s.HandleRequest(0.52, r)
	if resp.Kind != im.RespTimed {
		t.Fatalf("committed response = %v", resp.Kind)
	}
	te := 0.50 + 0.15
	latest := te + 1.0 // generous bound: deepest dip from 3 m/s over 0.35 m
	if resp.ArriveAt > latest {
		t.Errorf("committed ToA %v beyond physics (latest ~%v)", resp.ArriveAt, latest)
	}
}

func TestCrossroadsStopCommandWhenDwellWouldEnterLip(t *testing.T) {
	s := newSched(t)
	// Occupy the intersection for a long while with slow cross traffic.
	for i := int64(1); i <= 3; i++ {
		s.HandleRequest(0.05+float64(i)*0.01, req(i, 1, intersection.North, 0.04, 3.0, 1.0))
	}
	// A fast vehicle close to the line would have to dwell inside the lip
	// to wait its turn: the IM must command a stop instead.
	resp, _ := s.HandleRequest(0.40, req(9, 1, intersection.East, 0.39, 2.1, 3.0))
	if resp.Kind != im.RespVelocity || resp.TargetSpeed != 0 {
		t.Errorf("expected stop command, got %+v", resp)
	}
	// The stopped vehicle holds a placeholder protecting its turn.
	if _, ok := s.Book().Get(9); !ok {
		t.Error("no placeholder booked for the stopped vehicle")
	}
}

func TestCrossroadsInvalidParams(t *testing.T) {
	s := newSched(t)
	bad := req(1, 1, intersection.East, 0, 3, 3)
	bad.Params = kinematics.Params{}
	resp, _ := s.HandleRequest(0.05, bad)
	if resp.Kind != im.RespVelocity || resp.TargetSpeed != 0 {
		t.Errorf("invalid params: got %+v, want stop", resp)
	}
}

func TestNewValidation(t *testing.T) {
	x, _ := intersection.New(intersection.ScaleModelConfig())
	cfg := DefaultConfig()
	cfg.Spec.MaxSpeed = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid spec accepted")
	}
	cfg = DefaultConfig()
	cfg.MinCrossSpeed = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero MinCrossSpeed accepted")
	}
}

func TestLatestArrivalNoDwellBound(t *testing.T) {
	p := planner{wcRTD: 0.15, minSpeed: 0.1, lipDist: 0.6}

	// Far out at low speed: the vehicle can still stop behind the lip, so
	// any later arrival is reachable (it waits at the stop line).
	far := req(1, 1, intersection.East, 0, 3.0, 1.0)
	if got := p.LatestArrival(0, far); !math.IsInf(got, 1) {
		t.Errorf("stop-capable latest = %v, want +Inf", got)
	}

	// Close in at full speed: stopping would park the nose inside the lip,
	// so the latest is the finite no-dwell dip bound — NOT the effectively
	// unbounded stop-and-dwell arrival the planner used to report.
	near := req(2, 1, intersection.East, 0, 1.5, 3.0)
	te := near.TransmitTime + p.wcRTD
	de := near.DistToEntry - near.CurrentSpeed*(te-near.TransmitTime)
	if near.Params.StoppingDistance(near.CurrentSpeed) < de-p.lipDist {
		t.Fatal("test setup: vehicle unexpectedly stop-capable")
	}
	got := p.LatestArrival(0, near)
	if math.IsInf(got, 1) {
		t.Fatal("lip-bound vehicle reported unbounded latest arrival")
	}
	eta, ok := kinematics.LatestNoDwell(de, near.CurrentSpeed, p.minSpeed, near.Params)
	if !ok {
		t.Fatal("no-dwell bound infeasible")
	}
	if math.Abs(got-(te+eta)) > 1e-9 {
		t.Errorf("latest = %v, want te+noDwellEta = %v", got, te+eta)
	}
	if earliest, _ := kinematics.EarliestArrival(de, near.CurrentSpeed, near.Params); got < te+earliest {
		t.Errorf("latest %v before earliest %v", got, te+earliest)
	}
}

// TestCommittedRebookRevisesAtSpecWCRTD: a grant displaced by a committed
// vehicle's re-booking is revised with a command that executes the spec's
// WC-RTD after the IM sends it, the latency the vehicles budget.
func TestCommittedRebookRevisesAtSpecWCRTD(t *testing.T) {
	x, err := intersection.New(intersection.FullScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Spec = safety.FullScaleSpec()
	cfg.Spec.WorstRTD = 0.3
	cfg.Cost.Jitter = 0
	cfg.RefLength, cfg.RefWidth = 4.5, 1.8
	s, err := New(x, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	params := kinematics.FullScaleParams()
	// The victim is granted a late slot it reaches by stopping well short
	// of the box and launching, so it can still take a later one.
	victim := im.Request{
		VehicleID: 1, Seq: 1, Params: params,
		Movement:     intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 10, DistToEntry: 50, MinArrival: 10,
	}
	if resp, _ := s.HandleRequest(0.01, victim); resp.Kind != im.RespTimed || resp.ArriveAt != 10 {
		t.Fatalf("victim grant %+v, want a timed grant at ToA 10", resp)
	}
	// A committed crossing vehicle 6.5 m from the box at its TE, held
	// past its reach by a coordination floor, is booked at its latest
	// arrival: a crawl through the box over the victim's slot.
	cause := im.Request{
		VehicleID: 2, Seq: 1, Params: params, Committed: true,
		Movement:     intersection.MovementID{Approach: intersection.North, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 8, DistToEntry: 6.5 + 8*0.3, TransmitTime: 6.2, MinArrival: 100,
	}
	now := 6.21
	s.HandleRequest(now, cause)
	var pushed []im.Push
	for _, p := range s.TakePushes() {
		if p.VehicleID == victim.VehicleID {
			pushed = append(pushed, p)
		}
	}
	if len(pushed) != 1 {
		t.Fatalf("victim pushes = %+v, want one revision", pushed)
	}
	if got, want := pushed[0].Resp.ExecuteAt, now+cfg.Spec.WorstRTD; math.Abs(got-want) > 1e-9 {
		t.Errorf("revision TE = %v, want now + WC-RTD = %v", got, want)
	}
	if pushed[0].Resp.ArriveAt <= 10 {
		t.Errorf("revision ToA %v does not push the victim later", pushed[0].Resp.ArriveAt)
	}
}
