package kinematics

import (
	"math"

	"crossroads/internal/geom"
)

// BicycleState is the state vector of the kinematic bicycle model used by
// the paper's Matlab simulators (eq. 7.1).
type BicycleState struct {
	Pos     geom.Vec2 // x, y in meters
	Heading float64   // phi, radians CCW from +X
	V       float64   // speed, m/s
}

// Pose returns the state's position and heading as a geom.Pose.
func (s BicycleState) Pose() geom.Pose { return geom.Pose{Pos: s.Pos, Heading: s.Heading} }

// BicycleInput is the control input: longitudinal acceleration and steering
// angle psi at the front axle.
type BicycleInput struct {
	Accel float64 // m/s^2
	Steer float64 // psi, radians
}

// bicycleDeriv evaluates eq. (7.1):
//
//	x'   = v cos(phi)
//	y'   = v sin(phi)
//	phi' = (v / l) tan(psi)
//	v'   = a
func bicycleDeriv(s BicycleState, u BicycleInput, wheelbase float64) (dx, dy, dphi, dv float64) {
	sin, cos := math.Sincos(s.Heading)
	dx = s.V * cos
	dy = s.V * sin
	dphi = s.V / wheelbase * math.Tan(u.Steer)
	dv = u.Accel
	return
}

// StepEuler advances the bicycle model by dt using explicit Euler
// integration. Speed is clamped at zero (the model does not reverse).
func StepEuler(s BicycleState, u BicycleInput, wheelbase, dt float64) BicycleState {
	dx, dy, dphi, dv := bicycleDeriv(s, u, wheelbase)
	s.Pos.X += dx * dt
	s.Pos.Y += dy * dt
	s.Heading = geom.NormalizeAngle(s.Heading + dphi*dt)
	s.V = max(0, s.V+dv*dt)
	return s
}

// StepRK4 advances the bicycle model by dt using classic fourth-order
// Runge-Kutta integration with the input held constant over the step.
func StepRK4(s BicycleState, u BicycleInput, wheelbase, dt float64) BicycleState {
	type deriv struct{ dx, dy, dphi, dv float64 }
	eval := func(st BicycleState) deriv {
		dx, dy, dphi, dv := bicycleDeriv(st, u, wheelbase)
		return deriv{dx, dy, dphi, dv}
	}
	advance := func(st BicycleState, d deriv, h float64) BicycleState {
		st.Pos.X += d.dx * h
		st.Pos.Y += d.dy * h
		st.Heading += d.dphi * h
		st.V = max(0, st.V+d.dv*h)
		return st
	}
	k1 := eval(s)
	k2 := eval(advance(s, k1, dt/2))
	k3 := eval(advance(s, k2, dt/2))
	k4 := eval(advance(s, k3, dt))
	combined := deriv{
		dx:   (k1.dx + 2*k2.dx + 2*k3.dx + k4.dx) / 6,
		dy:   (k1.dy + 2*k2.dy + 2*k3.dy + k4.dy) / 6,
		dphi: (k1.dphi + 2*k2.dphi + 2*k3.dphi + k4.dphi) / 6,
		dv:   (k1.dv + 2*k2.dv + 2*k3.dv + k4.dv) / 6,
	}
	out := advance(s, combined, dt)
	out.Heading = geom.NormalizeAngle(out.Heading)
	return out
}
