package im

import (
	"math"

	"crossroads/internal/kinematics"
)

// Anchor is the start of a timed command, the one rule of Crossroads
// (Chapter 6): the command executes at TE, where the vehicle is a known
// distance DE from the box entry at speed VC whatever the round-trip
// delay was. Every timed scheduler (Crossroads and the policies that wrap
// it, batch among them, dot, and the revision passes) plans from an
// Anchor: its earliest and latest arrival, the crossing plan for a chosen
// arrival, and whether that arrival is realizable outside the
// conflict-zone lip.
type Anchor struct {
	// TE is the command execution time (s).
	TE float64
	// DE is the distance from the vehicle center to the box entry at TE
	// (m), and VC the speed then (m/s).
	DE, VC float64
	// Params are the vehicle's capabilities.
	Params kinematics.Params
	// MinSpeed is the policy's minimum crossing speed (m/s): it floors
	// granted entry speeds and the no-dwell dip of Latest.
	MinSpeed float64
}

// AnchorRequest anchors a request's command at te. The vehicle holds VC,
// its reported speed clamped to [0, MaxSpeed], from its transmit time TT
// until te, so DE = DT - VC*(te-TT), floored at the box entry.
func AnchorRequest(req Request, te, minSpeed float64) Anchor {
	vc := min(max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	return Anchor{
		TE:       te,
		DE:       max(req.DistToEntry-vc*(te-req.TransmitTime), 0),
		VC:       vc,
		Params:   req.Params,
		MinSpeed: minSpeed,
	}
}

// AnchorPlan anchors a revision of a granted plan at te, from the state
// its commanded approach reaches then. ok is false when the plan recorded
// no approach or te lies outside it (see CrossingPlan.StateAt).
func AnchorPlan(plan CrossingPlan, te float64, params kinematics.Params, minSpeed float64) (Anchor, bool) {
	remaining, speed, ok := plan.StateAt(te)
	return Anchor{TE: te, DE: remaining, VC: speed, Params: params, MinSpeed: minSpeed}, ok
}

// Earliest returns the earliest reachable arrival, at maximum acceleration
// from TE, and the entry speed then, floored at MinSpeed.
func (a Anchor) Earliest() (earliest, vEarliest float64) {
	eta, v := kinematics.EarliestArrival(a.DE, a.VC, a.Params)
	return a.TE + eta, max(v, a.MinSpeed)
}

// Latest returns the latest arrival the vehicle can safely realize. It is
// +Inf while the vehicle can still stop lip meters short of the entry: it
// can wait there for any later slot. Closer in, a plan that dwells would
// park the nose inside crossing movements' conflict zones, so the bound is
// the deepest no-dwell dip, floored at MinSpeed. ok is false, and latest
// is TE, when not even that dip fits in DE.
func (a Anchor) Latest(lip float64) (latest float64, ok bool) {
	if a.Params.StoppingDistance(a.VC) < a.DE-lip {
		return math.Inf(1), true
	}
	eta, ok := kinematics.LatestNoDwell(a.DE, a.VC, a.MinSpeed, a.Params)
	if !ok {
		return a.TE, false
	}
	return a.TE + eta, true
}

// Plan returns the crossing plan arriving at toa: the approach from TE
// that reaches the entry at toa, then maximum acceleration to top speed
// through the box (the paper's Fig. 6.2). An arrival up to earliest enters
// at vEarliest; a later one at its approach's arrival speed, floored at
// MinSpeed. An arrival earlier than reachable flies the max-acceleration
// approach. The plan records its approach, so the grant can be revised.
func (a Anchor) Plan(toa, earliest, vEarliest float64) CrossingPlan {
	vArr := vEarliest
	prof, err := kinematics.PlanArrival(a.TE, a.DE, a.VC, toa, a.Params)
	if err != nil {
		prof = kinematics.EarliestProfile(a.TE, a.DE, a.VC, a.Params)
	} else if toa > earliest+1e-6 {
		vArr = max(prof.VelocityAt(prof.TimeAtDistance(a.DE)), a.MinSpeed)
	}
	plan := AccelPlan(toa, vArr, a.Params.MaxSpeed, a.Params.MaxAccel)
	plan.Approach = prof
	plan.ApproachDist = a.DE
	return plan
}

// Realizable reports whether the approach to toa reaches the entry within
// 50 ms of toa without dwelling, or crawling below 0.3 m/s, inside lip
// meters of the entry; a vehicle that must wait has to stop behind the lip
// and retry. A slow point at the approach's start is where the vehicle
// already is, so only a future dwell fails, and an arrival earlier than
// reachable passes: the max-acceleration approach never dwells.
func (a Anchor) Realizable(toa, lip float64) bool {
	prof, err := kinematics.PlanArrival(a.TE, a.DE, a.VC, toa, a.Params)
	if err != nil {
		return true
	}
	if math.Abs(prof.TimeAtDistance(a.DE)-toa) > 0.05 {
		return false
	}
	minV, remaining := kinematics.SlowestPoint(prof, a.DE)
	return minV >= 0.3 || remaining >= a.DE-1e-6 || remaining >= lip-1e-6
}
