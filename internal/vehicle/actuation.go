package vehicle

// The actuation side of the agent: trajectory planning against granted
// commands, the commitment-point logic, and the per-tick longitudinal
// controller with its safe-stop and car-following envelopes.

import (
	"math"

	"crossroads/internal/geom"
	"crossroads/internal/im"
	"crossroads/internal/kinematics"
	"crossroads/internal/trace"
)

// DistToEntry returns the measured distance from the vehicle center to the
// box entry point.
func (a *Agent) DistToEntry() float64 { return a.Movement.EnterS - a.Plant.MeasuredS() }

// canStillStop reports whether the vehicle could still brake to a stop at
// the stop line from its current position and speed. Past this commitment
// point the vehicle cannot renegotiate its slot: a re-request could be
// answered with a stop command or a delayed arrival that physics no longer
// permits.
func (a *Agent) canStillStop(sMeas float64) bool {
	stopAt := a.Movement.EnterS - a.Plant.Params.Length/2 - a.cfg.StopLineOffset
	v := a.Plant.MeasuredV()
	// The vehicle holds speed until a renegotiated command executes
	// (CommandLatency after transmission), so stop-capability is judged
	// from the execution position.
	atExec := sMeas + v*a.cfg.CommandLatency
	return atExec+a.Plant.Params.StoppingDistance(v) < stopAt
}

// dwellClearsLip reports whether a plan covering dist meters to the box
// entry keeps any dwell (speed below 0.3 m/s) at or behind the stop line.
func (a *Agent) dwellClearsLip(prof kinematics.Profile, dist float64) bool {
	minV, remaining := kinematics.SlowestPoint(prof, dist)
	if minV >= 0.3 {
		return true
	}
	if remaining >= dist-1e-6 {
		// The slow point is the plan's start: the vehicle already stands
		// there.
		return true
	}
	return remaining >= a.Plant.Params.Length/2+a.cfg.StopLineOffset-1e-6
}

// failsafe records a failsafe event (fault-injected runs only) and brings
// the vehicle to a safe stop before the transmission line, from which it
// re-requests a slot.
func (a *Agent) failsafe(reason string) {
	a.Failsafes++
	if a.cfg.Trace != nil {
		a.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindVehFailsafe, T: a.sim.Now(), Vehicle: a.ID, Node: a.node,
			Detail: reason,
		})
	}
	a.stopAndRetry()
}

// stopAndRetry brings the vehicle to a safe stop (the safe-stop guard
// enforces the stop line) and schedules a fresh request.
func (a *Agent) stopAndRetry() {
	a.holdSpeed = 0
	a.hasProfile = false
	a.hasArrival = false
	a.setState(StateHold)
	a.retry.Cancel()
	a.retry = a.sim.After(a.cfg.RetryInterval, func() {
		if a.state == StateHold {
			a.Retries++
			a.sendRequest(false)
		}
	})
}

// applyTimedCommand implements Algorithm 8's actuate(TE, ToA, VT): plan the
// trajectory anchored at the commanded execution time on the vehicle's own
// synchronized clock.
func (a *Agent) applyTimedCommand(now float64, resp im.Response) {
	tExec := a.Clock.WhenSynced(resp.ExecuteAt)
	tArrive := a.Clock.WhenSynced(resp.ArriveAt)
	if tExec <= now {
		// The reply arrived after its own execution time (RTD bound was
		// violated); the position contract is broken. Ask again if a stop
		// is still possible; a committed vehicle keeps its current plan.
		if !a.canStillStop(a.Plant.MeasuredS()) {
			if a.state == StateFollow && a.hasProfile {
				return
			}
			// No plan to keep: a vehicle already standing at the stop line
			// fails canStillStop on its boundary (it cannot stop *before* a
			// line it is on), and our caller just canceled the retry timer —
			// returning here would silence the agent forever. Re-enter the
			// retry loop from the stop instead.
			a.stopAndRetry()
			return
		}
		a.setState(StateHold)
		a.retry.Cancel()
		a.retry = a.sim.After(0.01, func() {
			if a.state == StateHold {
				a.sendRequest(true)
			}
		})
		return
	}
	v := a.Plant.MeasuredV()
	s := a.Plant.MeasuredS()
	// Request-driven grants assume the vehicle holds its current speed
	// until TE; IM-initiated revisions (Seq 0) were computed from the
	// commanded trajectory instead, so anchor accordingly.
	originS := s + v*(tExec-now)
	if resp.Seq == 0 && a.hasProfile {
		originS = a.originS + a.profile.DistanceAt(tExec)
		v = a.profile.VelocityAt(tExec)
	}
	dist := math.Max(a.Movement.EnterS-originS, 0)
	prof, err := kinematics.PlanArrival(tExec, dist, v, tArrive, a.Plant.Params)
	if err != nil {
		// Measurement noise can make the granted ToA momentarily
		// infeasible; fall back to the earliest profile (arriving a hair
		// early, within the sensing buffer).
		_, _, prof = kinematics.EarliestArrival(tExec, dist, v, a.Plant.Params)
	}
	if (math.Abs(prof.TimeAtDistance(dist)-tArrive) > 0.05 || !a.dwellClearsLip(prof, dist)) && a.canStillStop(s) {
		// The plan cannot realize the granted arrival (the slot slid past
		// the latest arrival reachable from here), or it would park the
		// nose inside the conflict-zone lip. Renegotiate from a safe stop.
		a.stopAndRetry()
		return
	}
	prof = appendBoxAccel(prof, a.Plant.Params)
	a.tArriveRef = tArrive
	a.hasArrival = true
	a.lastPlan = now
	a.profile = prof
	a.originS = originS
	a.hasProfile = true
	a.setState(StateFollow)
}

// applyAIMAccept locks in the granted constant-speed crossing.
func (a *Agent) applyAIMAccept(now float64, resp im.Response) {
	tArrive := a.Clock.WhenSynced(resp.ArriveAt)
	v := resp.TargetSpeed
	if v <= 0 {
		return
	}
	a.reservedToA = resp.ArriveAt
	a.reservedV = v
	cur := a.Plant.MeasuredV()
	if cur >= 0.15*a.Plant.Params.MaxSpeed {
		// Moving proposal: keep cruising at the proposed speed until the
		// reserved entry, then accelerate through the box as reserved.
		a.originS = a.Movement.EnterS - v*(tArrive-now)
		a.profile = appendBoxAccel(kinematics.HoldProfile(now, v, math.Max(tArrive-now, 0)), a.Plant.Params)
	} else {
		// Launch proposal: dwell if needed, then accelerate to arrive on
		// the reservation and keep accelerating through the box.
		s := a.Plant.MeasuredS()
		dist := math.Max(a.Movement.EnterS-s, 0)
		prof, err := kinematics.PlanArrival(now, dist, cur, tArrive, a.Plant.Params)
		if err != nil {
			_, _, prof = kinematics.EarliestArrival(now, dist, cur, a.Plant.Params)
		}
		a.profile = appendBoxAccel(prof, a.Plant.Params)
		a.originS = s
	}
	a.hasProfile = true
	a.setState(StateFollow)
}

// appendBoxAccel extends a profile that ends at the box entry with the
// max-acceleration crossing of the paper's Fig. 6.2: accelerate from the
// arrival speed to top speed and hold (the constant-speed extrapolation
// beyond the final phase covers the rest of the crossing).
func appendBoxAccel(prof kinematics.Profile, params kinematics.Params) kinematics.Profile {
	v := prof.FinalVelocity()
	if v >= params.MaxSpeed-1e-9 {
		return prof
	}
	return prof.Append(kinematics.Phase{
		Duration: (params.MaxSpeed - v) / params.MaxAccel,
		V0:       v,
		Accel:    params.MaxAccel,
	})
}

// ControlStep returns the commanded speed for this tick. The world calls it
// once per physics step and feeds the result to the plant.
func (a *Agent) ControlStep(now, dt float64) float64 {
	sMeas := a.Plant.MeasuredS()

	// Car-following envelope, computed up front so the planner logic can
	// see whether the leader is the binding constraint. On the approach
	// the law is Gipps-style: even if the leader brakes to a stop at its
	// full capability, this vehicle — after a reaction-time margin and
	// braking at only 70% of its own capability — must stop before
	// closing the gap below MinGap. For in-box merge leaders the envelope
	// assumes the leader holds speed instead.
	vFollow := math.Inf(1)
	if l, ok := a.leader(); ok {
		if l.Merge {
			free := math.Max(l.Gap-a.cfg.MinGap-a.Plant.MeasuredV()*a.cfg.HeadwayTau, 0)
			vFollow = math.Sqrt(l.Speed*l.Speed + 2*0.7*a.Plant.Params.MaxDecel*free)
		} else {
			vFollow = SafeFollowSpeed(l.Gap-a.cfg.MinGap, l.Speed, l.Decel,
				a.Plant.Params.MaxDecel, a.cfg.HeadwayTau)
		}
	}

	// Grant-expiry failsafe (armed only under fault injection): a vehicle
	// still on the approach whose granted arrival time has passed by more
	// than the TTL holds a grant the system could not honor — every
	// renegotiation was lost to the fault. While a stop is still
	// physically possible, abandon the expired plan and fail safe at the
	// stop line; a committed vehicle keeps driving its reservation.
	if a.cfg.GrantTTL > 0 && a.state == StateFollow && a.hasArrival &&
		now > a.tArriveRef+a.cfg.GrantTTL &&
		sMeas < a.Movement.EnterS-a.Plant.Params.Length/2 && a.canStillStop(sMeas) {
		a.failsafe("grant-expired")
	}

	var vCmd float64
	switch a.state {
	case StateFollow:
		// Crossroads grants carry an absolute arrival time, so the vehicle
		// periodically re-plans from its *actual* state toward the granted
		// ToA instead of chasing a stale trajectory — tracking drift would
		// otherwise become unrecoverable lateness once the plan saturates
		// at maximum acceleration.
		if a.hasArrival && now-a.lastPlan > 0.4 && sMeas < a.Movement.EnterS-a.Plant.Params.Length/2 {
			dist := a.Movement.EnterS - sMeas
			prof, err := kinematics.PlanArrival(now, dist, a.Plant.MeasuredV(), a.tArriveRef, a.Plant.Params)
			switch {
			case err == nil && a.dwellClearsLip(prof, dist):
				a.profile = appendBoxAccel(prof, a.Plant.Params)
				a.originS = sMeas
			case err != nil:
				// The granted arrival is no longer reachable (time was
				// lost following a leader). Measure the slip: a few
				// milliseconds rides on the margins with the earliest
				// profile; a real slip is renegotiated before it becomes
				// an in-box conflict.
				eta, _, fastProf := kinematics.EarliestArrival(now, dist, a.Plant.MeasuredV(), a.Plant.Params)
				slip := (now + eta) - a.tArriveRef
				if slip <= 0.08 {
					a.profile = appendBoxAccel(fastProf, a.Plant.Params)
					a.originS = sMeas
				} else if a.canStillStop(sMeas) {
					a.hasProfile = false
					a.hasArrival = false
					a.holdSpeed = a.Plant.MeasuredV()
					a.sendRequest(true)
				} else {
					a.sendCommittedRequest()
				}
			}
			a.lastPlan = now
		}
		vTarget := a.profile.VelocityAt(now + dt)
		sTarget := a.originS + a.profile.DistanceAt(now)
		lag := sTarget - sMeas
		vCmd = math.Max(vTarget+a.cfg.ControlGain*lag, 0)
		// An AIM reservation is re-validated once, at the last moment a
		// stop is still possible: a committed vehicle's truthful re-booking
		// may have landed inside our window since we were accepted.
		if a.cfg.Protocol == im.ProtocolQuery && !a.confirmed &&
			sMeas < a.Movement.EnterS-a.Plant.Params.Length {
			stopAt := a.Movement.EnterS - a.Plant.Params.Length/2 - a.cfg.StopLineOffset
			v := a.Plant.MeasuredV()
			lead := 2 * v * a.cfg.HeadwayTau
			if sMeas+a.Plant.Params.StoppingDistance(v)+lead >= stopAt {
				a.confirmed = true
				a.sendConfirm()
			}
		}

		// Falling badly behind plan (queued behind a slower leader) breaks
		// the reservation contract: give the slot back and ask again —
		// but only while the commitment can still be renegotiated
		// (before the box). For AIM the tolerance is temporal (its tile
		// reservations are time-quantized), so slow crossings convert the
		// lag to time.
		lagExceeded := lag > a.cfg.ReRequestLag
		if a.cfg.Protocol == im.ProtocolQuery {
			lagExceeded = lag/math.Max(vTarget, 0.2) > 0.1
		}
		if lagExceeded && now-a.lastRequest > a.cfg.ReRequestMinInterval {
			if a.canStillStop(sMeas) {
				a.hasProfile = false
				a.hasArrival = false
				a.holdSpeed = a.Plant.MeasuredV()
				a.sendRequest(true)
				vCmd = a.holdSpeed
			} else if lagExceeded &&
				(a.cfg.Protocol == im.ProtocolQuery || lag/math.Max(vTarget, 0.3) > 0.2) &&
				a.cfg.Protocol != im.ProtocolVelocity &&
				sMeas < a.Movement.EnterS-a.Plant.Params.Length/2 {
				// Committed and badly late (well beyond what the margins
				// absorb): keep driving the old plan but tell the IM the
				// truth so it re-books this crossing at its real timing
				// and future grants respect it. Mild lateness rides on the
				// margins instead.
				a.sendCommittedRequest()
			}
		}
	case StateDone:
		// Clear the exit road briskly: lingering at a slow crossing speed
		// would park an obstacle in front of the merge.
		vCmd = a.Plant.Params.MaxSpeed
	default: // Sync, Request, Hold: coast with the safe-stop guard
		vCmd = a.holdSpeed
	}

	// Safe-stop clause: without an active plan the vehicle must be able to
	// stop with its front bumper at the stop line.
	if a.state != StateFollow && a.state != StateDone {
		stopAt := a.Movement.EnterS - a.Plant.Params.Length/2 - a.cfg.StopLineOffset
		remaining := stopAt - sMeas
		vSafe := math.Sqrt(2 * a.Plant.Params.MaxDecel * math.Max(remaining, 0))
		vCmd = math.Min(vCmd, vSafe)
		// No-grant failsafe event (fault-injected runs only): latch the
		// first tick the vehicle stands near the stop line without a
		// grant — the observable outcome of a grant that never arrived.
		if a.cfg.GrantTTL > 0 {
			if !a.noGrantHalt && a.Plant.MeasuredV() < 0.02 &&
				remaining < 2*a.Plant.Params.Length {
				a.noGrantHalt = true
				a.Failsafes++
				if a.cfg.Trace != nil {
					a.cfg.Trace.Emit(trace.Event{
						Kind: trace.KindVehFailsafe, T: now, Vehicle: a.ID, Node: a.node,
						Detail: "no-grant",
					})
				}
			}
		}
	} else if a.cfg.GrantTTL > 0 {
		a.noGrantHalt = false
	}

	vCmd = math.Min(vCmd, vFollow)
	return geom.Clamp(vCmd, 0, a.Plant.Params.MaxSpeed)
}

// SafeFollowSpeed returns the highest speed from which a follower can
// still avoid closing a (bumper-to-bumper minus minimum) gap of `free`
// meters on a leader moving at leaderV that may brake to a stop at
// leaderDecel, given the follower reacts after tau seconds and then brakes
// at its own maxDecel:
//
//	v*tau + v^2/(2*d) <= free + leaderV^2/(2*leaderDecel)
//
// Discretization overshoot while riding the envelope is absorbed by the
// MinGap slack the caller already subtracted from the gap.
func SafeFollowSpeed(free, leaderV, leaderDecel, maxDecel, tau float64) float64 {
	if free < 0 {
		free = 0
	}
	if leaderDecel <= 0 {
		leaderDecel = maxDecel
	}
	b := maxDecel
	room := free + leaderV*leaderV/(2*leaderDecel)
	v := -b*tau + math.Sqrt(b*tau*b*tau+2*b*room)
	if v < 0 {
		return 0
	}
	return v
}
