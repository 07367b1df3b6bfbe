// Package kinematics models the longitudinal motion of the simulated
// vehicles: their capabilities and dimensions (Params) and
// piecewise-constant-acceleration velocity profiles (Profile). The
// planners in this package implement the trajectory math of the
// Crossroads paper (Chapter 6): the earliest time of arrival EToA given
// maximum acceleration, and profiles that arrive at the intersection at an
// exact target time with the highest feasible velocity.
//
// Lateral motion is not integrated: the simulated plants (internal/plant)
// move along each movement's path by arc length, in place of the paper's
// kinematic bicycle model (eq. 7.1).
package kinematics

import (
	"errors"
	"fmt"
)

// Params are the physical capabilities and dimensions of a vehicle. All
// values must be positive. These correspond to the paper's VehicleInfo
// packet fields (max acceleration, max deceleration, max speed, length,
// width).
type Params struct {
	MaxSpeed  float64 // m/s
	MaxAccel  float64 // m/s^2, magnitude of maximum acceleration
	MaxDecel  float64 // m/s^2, magnitude of maximum braking deceleration
	Length    float64 // m, vehicle body length
	Width     float64 // m, vehicle body width
	Wheelbase float64 // m, axle distance; carried on the wire Request, not simulated
}

// Validate returns an error describing the first invalid field, or nil.
func (p Params) Validate() error {
	switch {
	case p.MaxSpeed <= 0:
		return fmt.Errorf("kinematics: MaxSpeed %v must be positive", p.MaxSpeed)
	case p.MaxAccel <= 0:
		return fmt.Errorf("kinematics: MaxAccel %v must be positive", p.MaxAccel)
	case p.MaxDecel <= 0:
		return fmt.Errorf("kinematics: MaxDecel %v must be positive", p.MaxDecel)
	case p.Length <= 0:
		return fmt.Errorf("kinematics: Length %v must be positive", p.Length)
	case p.Width <= 0:
		return fmt.Errorf("kinematics: Width %v must be positive", p.Width)
	case p.Wheelbase <= 0:
		return fmt.Errorf("kinematics: Wheelbase %v must be positive", p.Wheelbase)
	}
	return nil
}

// StoppingDistance returns the distance needed to brake from speed v to a
// complete stop at maximum deceleration.
func (p Params) StoppingDistance(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * v / (2 * p.MaxDecel)
}

// ScaleModelParams returns the parameters of the paper's 1/10-scale Traxxas
// vehicles (Chapter 2): 0.568 m x 0.296 m body, 3 m/s speed cap. The
// acceleration limits and wheelbase are not stated numerically in the paper;
// the values here (3 m/s^2 accel/decel, 0.335 m wheelbase of a Traxxas Slash)
// were chosen so the scale vehicles clear the 3 m approach as in Fig. 1.1.
func ScaleModelParams() Params {
	return Params{
		MaxSpeed:  3.0,
		MaxAccel:  3.0,
		MaxDecel:  3.0,
		Length:    0.568,
		Width:     0.296,
		Wheelbase: 0.335,
	}
}

// FullScaleParams returns parameters representative of a full-size passenger
// car, used by the scalability simulations: 15 m/s cap (~54 km/h urban),
// 3 m/s^2 accel, 5 m/s^2 braking.
func FullScaleParams() Params {
	return Params{
		MaxSpeed:  15.0,
		MaxAccel:  3.0,
		MaxDecel:  5.0,
		Length:    4.5,
		Width:     1.8,
		Wheelbase: 2.7,
	}
}

// ErrInfeasible is returned by planners when no profile satisfying the
// requested constraints exists (for example, a requested arrival earlier
// than the earliest kinematically reachable arrival).
var ErrInfeasible = errors.New("kinematics: requested trajectory is infeasible")
