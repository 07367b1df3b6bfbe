package kinematics

import (
	"fmt"
	"math"
)

// EarliestArrival implements the paper's earliest-time-of-arrival
// calculation (Chapter 6): the vehicle accelerates from vInit at maximum
// acceleration until it reaches MaxSpeed after TAcc = (Vmax-Vinit)/amax,
// covering DeltaX = 0.5*amax*TAcc^2 + Vinit*TAcc, and then cruises, so
//
//	EToA = TAcc + (D - DeltaX) / Vmax.
//
// If the distance is too short to reach MaxSpeed, the vehicle is still
// accelerating at arrival. It returns the arrival delay after the profile
// start (seconds), the arrival velocity, and the max-acceleration profile
// anchored at startTime.
func EarliestArrival(startTime, dist, vInit float64, p Params) (eta, vArr float64, prof Profile) {
	if dist <= 0 {
		return 0, vInit, HoldProfile(startTime, vInit, 0)
	}
	tm := earliestTiming(dist, vInit, p)
	accel := Phase{Duration: tm.tAcc, V0: math.Min(vInit, p.MaxSpeed), Accel: p.MaxAccel}
	if !tm.cruises {
		return tm.eta, tm.vArr, NewProfile(startTime, accel)
	}
	return tm.eta, tm.vArr, NewProfile(startTime, accel, Phase{Duration: tm.cruise, V0: p.MaxSpeed, Accel: 0})
}

// arrivalTiming is EarliestArrival's result without the profile: the
// arrival delay and velocity, and the profile's phase durations.
type arrivalTiming struct {
	eta, vArr float64
	// tAcc is the time at maximum acceleration, the whole delay when the
	// vehicle is still accelerating at arrival; cruises reports that it
	// reaches MaxSpeed first, and cruise is the time it then holds it.
	tAcc, cruise float64
	cruises      bool
}

// earliestTiming is EarliestArrival's arithmetic without building the
// profile, so timing an arrival allocates nothing. dist <= 0 arrives at
// once, at vInit.
func earliestTiming(dist, vInit float64, p Params) arrivalTiming {
	if dist <= 0 {
		return arrivalTiming{vArr: vInit}
	}
	vInit = math.Min(vInit, p.MaxSpeed)
	tAcc := (p.MaxSpeed - vInit) / p.MaxAccel
	deltaX := 0.5*p.MaxAccel*tAcc*tAcc + vInit*tAcc
	if deltaX >= dist {
		// Still accelerating at arrival: solve 0.5*a*t^2 + v0*t = dist.
		t := (-vInit + math.Sqrt(vInit*vInit+2*p.MaxAccel*dist)) / p.MaxAccel
		return arrivalTiming{eta: t, vArr: vInit + p.MaxAccel*t, tAcc: t}
	}
	cruise := (dist - deltaX) / p.MaxSpeed
	return arrivalTiming{eta: tAcc + cruise, vArr: p.MaxSpeed, tAcc: tAcc, cruise: cruise, cruises: true}
}

// dipArrival computes the arrival delay when the vehicle decelerates from
// vInit to vLow at max deceleration and then accelerates at max acceleration
// toward MaxSpeed for the remaining distance (cruising at MaxSpeed if
// reached). Returns +Inf if the dip itself does not fit in dist.
func dipArrival(dist, vInit, vLow float64, p Params) (eta, vArr float64, ok bool) {
	if vLow > vInit {
		return 0, 0, false
	}
	tDown := (vInit - vLow) / p.MaxDecel
	dDown := (vInit*vInit - vLow*vLow) / (2 * p.MaxDecel)
	if dDown > dist+1e-12 {
		return 0, 0, false
	}
	rem := dist - dDown
	up := earliestTiming(rem, vLow, p)
	return tDown + up.eta, up.vArr, true
}

// LatestNoDwell returns the latest arrival delay reachable over dist meters
// from vInit without ever slowing below vFloor: decelerate at max to the
// deepest reachable dip speed (floored at vFloor), then accelerate out.
// This bounds the latest *safe* arrival for a vehicle that can no longer
// hold behind the conflict-zone lip — a stop-and-dwell plan would park its
// nose inside crossing movements' conflict zones, so dwells don't count.
// ok is false when even the dip does not fit in dist (vInit already above
// what dist can absorb while respecting vFloor).
func LatestNoDwell(dist, vInit, vFloor float64, p Params) (eta float64, ok bool) {
	if err := p.Validate(); err != nil || dist < 0 {
		return 0, false
	}
	vInit = math.Min(math.Max(vInit, 0), p.MaxSpeed)
	vLow := math.Sqrt(math.Max(0, vInit*vInit-2*p.MaxDecel*dist))
	if vFloor > vLow {
		vLow = vFloor
	}
	if vLow > vInit {
		vLow = vInit
	}
	eta, _, ok = dipArrival(dist, vInit, vLow, p)
	return eta, ok
}

// tooEarlyError is PlanArrival's ErrInfeasible for an arrival earlier than
// the earliest reachable one. Schedulers probe candidate arrivals and only
// test for the failure, so the message is formatted when it is read.
type tooEarlyError struct{ want, earliest float64 }

func (e *tooEarlyError) Error() string {
	return fmt.Sprintf("%v: want arrival %.4fs after start, earliest %.4fs", ErrInfeasible, e.want, e.earliest)
}

func (e *tooEarlyError) Unwrap() error { return ErrInfeasible }

// PlanArrival builds the fastest-crossing profile that covers dist meters
// starting at startTime with initial velocity vInit and arrives exactly
// arriveAt - startTime seconds later. This is the vehicle-side trajectory
// of the Crossroads protocol: the IM hands back (TE, ToA, VT) and the
// vehicle runs this plan from TE.
//
// Strategy (monotone in the dip speed, solved by bisection):
//  1. If the requested arrival equals the earliest arrival (within eps),
//     use the max-acceleration profile.
//  2. Otherwise decelerate to a dip speed vLow in [0, vInit], then
//     accelerate at max toward MaxSpeed; lower dips arrive later.
//  3. If even dipping to a full stop arrives too early, insert a stopped
//     dwell phase of the missing duration.
//
// It returns ErrInfeasible if arriveAt is earlier than the earliest
// kinematically reachable arrival (with 1 ms tolerance).
func PlanArrival(startTime, dist, vInit, arriveAt float64, p Params) (Profile, error) {
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	if dist < 0 {
		return Profile{}, fmt.Errorf("kinematics: negative distance %v", dist)
	}
	vInit = math.Min(math.Max(vInit, 0), p.MaxSpeed)
	want := arriveAt - startTime
	const tol = 1e-3 // 1 ms scheduling tolerance
	earliest, _, fastProf := EarliestArrival(startTime, dist, vInit, p)
	if want < earliest-tol {
		return Profile{}, &tooEarlyError{want: want, earliest: earliest}
	}
	if want <= earliest+tol {
		return fastProf, nil
	}

	// Arrival time when dipping all the way to a stop (no dwell).
	etaStop, _, okStop := dipArrival(dist, vInit, 0, p)
	if okStop && want > etaStop {
		// Stop, dwell, then launch.
		dwell := want - etaStop
		return buildDipProfile(startTime, dist, vInit, 0, dwell, p), nil
	}

	// Bisection on vLow in [lowBound, vInit]; eta(vLow) is decreasing in
	// vLow. lowBound > 0 only when the vehicle is too close to reach 0.
	lo, hi := 0.0, vInit
	if !okStop {
		// Find the smallest reachable dip speed: dDown(vLow) = dist.
		// vLow = sqrt(vInit^2 - 2*dmax*dist).
		lo = math.Sqrt(math.Max(0, vInit*vInit-2*p.MaxDecel*dist))
		etaLo, _, okLo := dipArrival(dist, vInit, lo, p)
		if !okLo || want > etaLo+tol {
			// Even the deepest feasible dip arrives too early; the caller
			// asked to arrive later than physics allows from here. Return
			// the latest feasible profile: deepest dip.
			return buildDipProfile(startTime, dist, vInit, lo, 0, p), nil
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		eta, _, ok := dipArrival(dist, vInit, mid, p)
		if !ok || eta > want {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	vLow := (lo + hi) / 2
	return buildDipProfile(startTime, dist, vInit, vLow, 0, p), nil
}

// buildDipProfile assembles decel-to-vLow, dwell (only if vLow==0), and
// accel-toward-MaxSpeed phases covering exactly dist meters.
func buildDipProfile(startTime, dist, vInit, vLow, dwell float64, p Params) Profile {
	var phases []Phase
	if vInit > vLow+1e-12 {
		phases = append(phases, Phase{
			Duration: (vInit - vLow) / p.MaxDecel,
			V0:       vInit,
			Accel:    -p.MaxDecel,
		})
	}
	dDown := (vInit*vInit - vLow*vLow) / (2 * p.MaxDecel)
	if dDown > dist {
		dDown = dist
	}
	if dwell > 0 {
		phases = append(phases, Phase{Duration: dwell, V0: vLow, Accel: 0})
	}
	rem := dist - dDown
	if rem > 1e-12 {
		// Accelerate toward MaxSpeed, cruising if it is reached early.
		tAcc := (p.MaxSpeed - vLow) / p.MaxAccel
		dAcc := 0.5*p.MaxAccel*tAcc*tAcc + vLow*tAcc
		if dAcc >= rem {
			t := (-vLow + math.Sqrt(vLow*vLow+2*p.MaxAccel*rem)) / p.MaxAccel
			phases = append(phases, Phase{Duration: t, V0: vLow, Accel: p.MaxAccel})
		} else {
			phases = append(phases,
				Phase{Duration: tAcc, V0: vLow, Accel: p.MaxAccel},
				Phase{Duration: (rem - dAcc) / p.MaxSpeed, V0: p.MaxSpeed, Accel: 0},
			)
		}
	}
	return NewProfile(startTime, phases...)
}

// SlowestPoint returns the minimum velocity reached during the profile's
// phases and the remaining distance to totalDist at that point. Planners use
// it to check where a dip plan dwells (or crawls): a vehicle must not park
// with its nose inside another movement's conflict zone.
func SlowestPoint(prof Profile, totalDist float64) (minV, remaining float64) {
	minV = math.Inf(1)
	var covered float64
	check := func(v, at float64) {
		if v < minV {
			minV = v
			remaining = totalDist - at
		}
	}
	if len(prof.Phases) == 0 {
		return 0, totalDist
	}
	check(prof.Phases[0].V0, 0)
	for _, ph := range prof.Phases {
		check(ph.VEnd(), covered+ph.Distance())
		covered += ph.Distance()
	}
	return minV, remaining
}

// PlanConstantSpeed returns the trivial profile of a vehicle holding speed v
// over dist meters (the AIM proposal trajectory), plus its arrival delay.
func PlanConstantSpeed(startTime, dist, v float64) (Profile, float64) {
	if v <= 0 {
		return HoldProfile(startTime, 0, 0), math.Inf(1)
	}
	d := dist / v
	return HoldProfile(startTime, v, d), d
}

// VTArrival solves the VT-IM response: given the request's current velocity
// and distance, and a required arrival time, it returns the single target
// velocity VT the vehicle should adopt immediately such that — after
// ramping from vInit to VT at the maximum rate and then holding VT — it
// reaches the intersection at the required time. This mirrors Algorithm 1's
// calculateTargetVelocity. Returns ErrInfeasible when even MaxSpeed is too
// slow (arrival later than required) — callers treat that as "go at
// earliest".
func VTArrival(dist, vInit, wantDelay float64, p Params) (float64, error) {
	earliest := earliestTiming(dist, vInit, p)
	if wantDelay <= earliest.eta {
		return earliest.vArr, nil
	}
	// eta(v): ramp from vInit to v at max rate, hold v. Monotone
	// decreasing in v.
	eta := func(v float64) float64 {
		if v <= 1e-9 {
			return math.Inf(1)
		}
		var rate float64
		if v >= vInit {
			rate = p.MaxAccel
		} else {
			rate = p.MaxDecel
		}
		tRamp := math.Abs(v-vInit) / rate
		dRamp := (vInit + v) / 2 * tRamp
		if dRamp > dist {
			// Cannot complete the ramp before the line; solve within ramp.
			a := rate
			if v < vInit {
				a = -rate
			}
			disc := vInit*vInit + 2*a*dist
			if disc < 0 {
				return math.Inf(1)
			}
			return (math.Sqrt(disc) - vInit) / a
		}
		return tRamp + (dist-dRamp)/v
	}
	lo, hi := 0.0, p.MaxSpeed
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if eta(mid) > wantDelay {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	v := (lo + hi) / 2
	if v < 1e-6 {
		return 0, fmt.Errorf("%w: required crawl speed below resolution", ErrInfeasible)
	}
	return v, nil
}

// RampHoldProfile builds the VT-IM vehicle trajectory: ramp from vInit to
// vTarget at the maximum rate, then hold vTarget for the remainder of dist
// meters. The profile ends when dist has been covered.
func RampHoldProfile(startTime, dist, vInit, vTarget float64, p Params) Profile {
	var rate float64
	if vTarget >= vInit {
		rate = p.MaxAccel
	} else {
		rate = -p.MaxDecel
	}
	var phases []Phase
	tRamp := 0.0
	dRamp := 0.0
	if math.Abs(vTarget-vInit) > 1e-12 {
		tRamp = (vTarget - vInit) / rate
		dRamp = (vInit + vTarget) / 2 * tRamp
		if dRamp >= dist {
			// Ramp alone covers the distance; truncate it.
			dt := solvePhaseTime(vInit, rate, dist, tRamp)
			if math.IsNaN(dt) {
				dt = tRamp
			}
			return NewProfile(startTime, Phase{Duration: dt, V0: vInit, Accel: rate})
		}
		phases = append(phases, Phase{Duration: tRamp, V0: vInit, Accel: rate})
	}
	if vTarget > 1e-12 {
		phases = append(phases, Phase{Duration: (dist - dRamp) / vTarget, V0: vTarget, Accel: 0})
	}
	return NewProfile(startTime, phases...)
}
