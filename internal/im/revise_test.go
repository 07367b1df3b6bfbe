package im

import (
	"math"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
)

// reviseHarness books one east-straight crossing with a recorded approach
// trajectory, then rebooks a conflicting north-straight truth on top of it.
func reviseHarness(t *testing.T) (*Book, Reservation, Reservation) {
	t.Helper()
	x, err := intersection.New(intersection.FullScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	table, err := intersection.BuildConflictTable(x, 5.13, 2.43, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBook(x, table, 0.05, 0.63)
	params := kinematics.FullScaleParams()

	// Victim: east-straight granted ToA=10, commanded at te=5 from 30 m out
	// at 10 m/s (a feasible dip plan it is still executing).
	te, de, vc := 5.0, 30.0, 10.0
	prof, err := kinematics.PlanArrival(te, de, vc, 10.0, params)
	if err != nil {
		t.Fatal(err)
	}
	victimPlan := AccelPlan(10.0, prof.VelocityAt(prof.TimeAtDistance(de)), params.MaxSpeed, params.MaxAccel)
	victimPlan.Approach = prof
	victimPlan.ApproachDist = de
	victim := Reservation{
		VehicleID: 1, Seniority: 1,
		Movement: intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight},
		Params:   params, ToA: 10.0, Plan: victimPlan, PlanLen: 5.13,
	}
	if err := b.Add(victim); err != nil {
		t.Fatal(err)
	}

	// Cause: a committed north-straight truth landing right in the
	// victim's window.
	cause := Reservation{
		VehicleID: 2, Seniority: 2,
		Movement: intersection.MovementID{Approach: intersection.North, Lane: 0, Turn: intersection.Straight},
		Params:   params, ToA: 10.1, Plan: AccelPlan(10.1, 8, params.MaxSpeed, params.MaxAccel), PlanLen: 5.13,
	}
	if err := b.Add(cause); err != nil {
		t.Fatal(err)
	}
	return b, victim, cause
}

func TestReviseConflictsPushesVictimLater(t *testing.T) {
	b, victim, cause := reviseHarness(t)
	pushes := ReviseConflicts(b, cause, 6.0, 0.15, 0.1)
	if len(pushes) != 1 {
		t.Fatalf("pushes = %d, want 1", len(pushes))
	}
	p := pushes[0]
	if p.VehicleID != victim.VehicleID {
		t.Fatalf("pushed veh%d, want veh%d", p.VehicleID, victim.VehicleID)
	}
	if p.Resp.Kind != RespTimed {
		t.Fatalf("push kind = %v", p.Resp.Kind)
	}
	if p.Resp.ArriveAt <= victim.ToA {
		t.Errorf("revision did not push later: %v vs %v", p.Resp.ArriveAt, victim.ToA)
	}
	if math.Abs(p.Resp.ExecuteAt-6.15) > 1e-9 {
		t.Errorf("revision TE = %v, want now+latency", p.Resp.ExecuteAt)
	}
	// The book now holds the revised slot and it clears the cause.
	revised, ok := b.Get(victim.VehicleID)
	if !ok {
		t.Fatal("victim booking lost")
	}
	if revised.ToA != p.Resp.ArriveAt {
		t.Errorf("book %v != push %v", revised.ToA, p.Resp.ArriveAt)
	}
	if shift := b.requiredShift(revised, &cause); shift > 1e-6 {
		t.Errorf("revised slot still conflicts: shift %v", shift)
	}
}

func TestReviseConflictsSkipsUnrevisable(t *testing.T) {
	b, victim, cause := reviseHarness(t)
	// Strip the victim's approach trajectory: the IM cannot know its
	// state, so it must not be touched.
	victim.Plan.Approach = kinematics.Profile{}
	victim.Plan.ApproachDist = 0
	b.Add(victim)
	pushes := ReviseConflicts(b, cause, 6.0, 0.15, 0.1)
	if len(pushes) != 0 {
		t.Errorf("pushes = %d for unrevisable victim", len(pushes))
	}
	got, _ := b.Get(victim.VehicleID)
	if got.ToA != victim.ToA {
		t.Errorf("unrevisable victim moved: %v", got.ToA)
	}
}

func TestReviseConflictsSkipsCommittedVictims(t *testing.T) {
	b, victim, cause := reviseHarness(t)
	// Late revision attempt: by now+latency the victim is nearly at the
	// box (its profile has almost finished) — no longer dip-capable, so
	// it must not be revised.
	_ = victim
	pushes := ReviseConflicts(b, cause, 9.5, 0.15, 0.1)
	if len(pushes) != 0 {
		t.Errorf("pushes = %d for a committed victim", len(pushes))
	}
}

func TestReviseConflictsNoConflictNoPush(t *testing.T) {
	b, _, cause := reviseHarness(t)
	// A cause far in the future conflicts with nothing.
	cause.ToA = 200
	cause.Plan = AccelPlan(200, 8, 15, 3)
	b.Add(cause)
	if pushes := ReviseConflicts(b, cause, 6.0, 0.15, 0.1); len(pushes) != 0 {
		t.Errorf("pushes = %d, want 0", len(pushes))
	}
}

func TestStateAtBeforeAnchor(t *testing.T) {
	params := kinematics.FullScaleParams()
	prof, err := kinematics.PlanArrival(5, 30, 10, 10.0, params)
	if err != nil {
		t.Fatal(err)
	}
	plan := AccelPlan(10.0, prof.VelocityAt(prof.TimeAtDistance(30)), params.MaxSpeed, params.MaxAccel)
	plan.Approach = prof
	plan.ApproachDist = 30

	// Shortly before the anchor the grant contract has the vehicle holding
	// its anchor speed, so the state extrapolates backwards along it.
	rem, v, ok := plan.StateAt(4.6)
	if !ok {
		t.Fatal("state 0.4 s before anchor not defined")
	}
	if math.Abs(v-10) > 1e-9 {
		t.Errorf("speed before anchor = %v, want anchor speed 10", v)
	}
	if math.Abs(rem-(30+10*0.4)) > 1e-9 {
		t.Errorf("remaining before anchor = %v, want %v", rem, 30+10*0.4)
	}

	// Far before the anchor the contract no longer applies.
	if _, _, ok := plan.StateAt(3.5); ok {
		t.Error("state 1.5 s before anchor should be undefined")
	}
}

// nonStoppableHarness books an east-straight victim whose stopping distance
// (14.4 m from 12 m/s) overruns the conflict-zone lip (15 m out, 5.13 m plan
// length): it can no longer hold behind the lip, but its no-dwell dip still
// reaches ~1.9 s past its earliest arrival. The revise time is chosen so
// te lands exactly on the victim's plan anchor.
func nonStoppableHarness(t *testing.T, causeEntrySpeed float64) (*Book, Reservation, Reservation) {
	t.Helper()
	x, err := intersection.New(intersection.FullScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	table, err := intersection.BuildConflictTable(x, 5.13, 2.43, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBook(x, table, 0.05, 0.63)
	params := kinematics.FullScaleParams()

	te, de, vc := 5.0, 15.0, 12.0
	if params.StoppingDistance(vc) < de-5.13 {
		t.Fatal("test setup: victim unexpectedly stop-capable")
	}
	etaE, _ := kinematics.EarliestArrival(de, vc, params)
	toa := te + etaE + 0.05
	prof, err := kinematics.PlanArrival(te, de, vc, toa, params)
	if err != nil {
		t.Fatal(err)
	}
	victimPlan := AccelPlan(toa, prof.VelocityAt(prof.TimeAtDistance(de)), params.MaxSpeed, params.MaxAccel)
	victimPlan.Approach = prof
	victimPlan.ApproachDist = de
	victim := Reservation{
		VehicleID: 1, Seniority: 1,
		Movement: intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight},
		Params:   params, ToA: toa, Plan: victimPlan, PlanLen: 5.13,
	}
	if err := b.Add(victim); err != nil {
		t.Fatal(err)
	}
	cause := Reservation{
		VehicleID: 2, Seniority: 2,
		Movement: intersection.MovementID{Approach: intersection.North, Lane: 0, Turn: intersection.Straight},
		Params:   params, ToA: toa + 0.05,
		Plan:    AccelPlan(toa+0.05, causeEntrySpeed, params.MaxSpeed, params.MaxAccel),
		PlanLen: 5.13,
	}
	if err := b.Add(cause); err != nil {
		t.Fatal(err)
	}
	return b, victim, cause
}

func TestReviseConflictsPushesNonStoppableVictim(t *testing.T) {
	// A victim past its safe-stop point is not unrevisable: a mild push
	// that fits inside its no-dwell dip must still go through. (The old
	// hard gate refused any revision here, leaving the conflict standing.)
	b, victim, cause := nonStoppableHarness(t, 8.0)
	pushes := ReviseConflicts(b, cause, 4.85, 0.15, 0.1)
	if len(pushes) != 1 {
		t.Fatalf("pushes = %d, want 1", len(pushes))
	}
	p := pushes[0]
	if p.VehicleID != victim.VehicleID {
		t.Fatalf("pushed veh%d, want veh%d", p.VehicleID, victim.VehicleID)
	}
	if p.Resp.ArriveAt <= victim.ToA {
		t.Errorf("revision did not push later: %v vs %v", p.Resp.ArriveAt, victim.ToA)
	}
	// The revised arrival stays inside the victim's no-dwell reach.
	latestEta, ok := kinematics.LatestNoDwell(15, 12, 0.1, victim.Params)
	if !ok {
		t.Fatal("no-dwell bound infeasible")
	}
	if p.Resp.ArriveAt > 5.0+latestEta+1e-9 {
		t.Errorf("revised arrival %v exceeds no-dwell latest %v", p.Resp.ArriveAt, 5.0+latestEta)
	}
	revised, ok := b.Get(victim.VehicleID)
	if !ok {
		t.Fatal("victim booking lost")
	}
	if shift := b.requiredShift(revised, &cause); shift > 1e-6 {
		t.Errorf("revised slot still conflicts: shift %v", shift)
	}
}

func TestReviseConflictsRespectsNoDwellBound(t *testing.T) {
	// Same victim, but the cause crawls through the box (0.2 m/s entry), so
	// the first conflict-free slot lies beyond the victim's no-dwell reach:
	// revising would require dwelling inside the lip, so it must not happen.
	b, victim, cause := nonStoppableHarness(t, 0.2)
	pushes := ReviseConflicts(b, cause, 4.85, 0.15, 0.1)
	if len(pushes) != 0 {
		t.Fatalf("pushes = %d, want 0 (slot beyond no-dwell reach)", len(pushes))
	}
	got, ok := b.Get(victim.VehicleID)
	if !ok {
		t.Fatal("victim booking lost")
	}
	if got.ToA != victim.ToA {
		t.Errorf("victim moved to %v despite unreachable slot", got.ToA)
	}
}
