package kinematics

import (
	"fmt"
	"math"
	"strings"
)

// Phase is one constant-acceleration piece of a velocity profile.
type Phase struct {
	Duration float64 // s, >= 0
	V0       float64 // m/s, velocity at the start of the phase
	Accel    float64 // m/s^2, constant acceleration during the phase
}

// VEnd returns the velocity at the end of the phase.
func (p Phase) VEnd() float64 { return p.V0 + p.Accel*p.Duration }

// Distance returns the distance covered during the phase.
func (p Phase) Distance() float64 {
	return p.V0*p.Duration + 0.5*p.Accel*p.Duration*p.Duration
}

// Profile is a longitudinal trajectory: a sequence of constant-acceleration
// phases anchored at an absolute start time. Distances are measured from the
// vehicle's position at StartTime. Beyond the final phase the profile
// extrapolates at the final velocity (constant-speed continuation), which
// matches the paper's vehicles that maintain their crossing velocity until
// exit.
type Profile struct {
	StartTime float64 // s, absolute simulation time of the profile origin
	Phases    []Phase
}

// NewProfile returns a profile anchored at startTime with the given phases.
// It panics if any phase has negative duration or if consecutive phases are
// velocity-discontinuous by more than 1e-6 m/s, since those indicate planner
// bugs.
func NewProfile(startTime float64, phases ...Phase) Profile {
	v := math.NaN()
	for i, ph := range phases {
		if ph.Duration < 0 {
			panic(fmt.Sprintf("kinematics: phase %d has negative duration %v", i, ph.Duration))
		}
		if i > 0 && math.Abs(ph.V0-v) > 1e-6 {
			panic(fmt.Sprintf("kinematics: velocity discontinuity at phase %d: %v -> %v", i, v, ph.V0))
		}
		v = ph.VEnd()
	}
	return Profile{StartTime: startTime, Phases: phases}
}

// Duration returns the total duration of all phases.
func (p Profile) Duration() float64 {
	var d float64
	for _, ph := range p.Phases {
		d += ph.Duration
	}
	return d
}

// EndTime returns StartTime + Duration.
func (p Profile) EndTime() float64 { return p.StartTime + p.Duration() }

// FinalVelocity returns the velocity at the end of the last phase (and hence
// the extrapolation speed). An empty profile has final velocity 0.
func (p Profile) FinalVelocity() float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	return p.Phases[len(p.Phases)-1].VEnd()
}

// TotalDistance returns the distance covered by the phases themselves
// (excluding constant-speed extrapolation).
func (p Profile) TotalDistance() float64 {
	var d float64
	for _, ph := range p.Phases {
		d += ph.Distance()
	}
	return d
}

// VelocityAt returns the velocity at absolute time t. Before StartTime the
// initial velocity is returned (the vehicle holds its speed until the
// profile begins); past the end, the final velocity.
func (p Profile) VelocityAt(t float64) float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	dt := t - p.StartTime
	if dt <= 0 {
		return p.Phases[0].V0
	}
	for _, ph := range p.Phases {
		if dt <= ph.Duration {
			return ph.V0 + ph.Accel*dt
		}
		dt -= ph.Duration
	}
	return p.FinalVelocity()
}

// DistanceAt returns the distance traveled since StartTime at absolute time
// t. For t before StartTime it returns the (negative) backward extrapolation
// at the initial velocity: the vehicle was approaching at constant speed.
func (p Profile) DistanceAt(t float64) float64 {
	dt := t - p.StartTime
	if len(p.Phases) == 0 {
		return 0
	}
	if dt <= 0 {
		return p.Phases[0].V0 * dt
	}
	var dist float64
	for _, ph := range p.Phases {
		if dt <= ph.Duration {
			return dist + ph.V0*dt + 0.5*ph.Accel*dt*dt
		}
		dist += ph.Distance()
		dt -= ph.Duration
	}
	return dist + p.FinalVelocity()*dt
}

// TimeAtDistance returns the absolute time at which the profile first
// reaches the given distance from its origin, using constant-speed
// extrapolation past the final phase. It returns +Inf if the distance is
// never reached (for example the profile ends stopped short of it).
func (p Profile) TimeAtDistance(d float64) float64 {
	if d <= 0 {
		return p.StartTime
	}
	var dist, t float64
	for _, ph := range p.Phases {
		phd := ph.Distance()
		if dist+phd >= d-1e-12 {
			// Solve 0.5*a*dt^2 + v0*dt = d - dist within this phase.
			need := d - dist
			dt := solvePhaseTime(ph.V0, ph.Accel, need, ph.Duration)
			if math.IsNaN(dt) {
				// Numerical edge: fall through to next phase.
				dist += phd
				t += ph.Duration
				continue
			}
			return p.StartTime + t + dt
		}
		dist += phd
		t += ph.Duration
	}
	v := p.FinalVelocity()
	if v <= 1e-12 {
		return math.Inf(1)
	}
	return p.StartTime + t + (d-dist)/v
}

// solvePhaseTime returns the smallest dt in [0, maxDt] such that
// v0*dt + a*dt^2/2 = need, or NaN if none exists.
func solvePhaseTime(v0, a, need, maxDt float64) float64 {
	const tol = 1e-9
	if need <= 0 {
		return 0
	}
	if math.Abs(a) < 1e-12 {
		if v0 <= 1e-12 {
			return math.NaN()
		}
		dt := need / v0
		if dt <= maxDt+tol {
			return min(dt, maxDt)
		}
		return math.NaN()
	}
	disc := v0*v0 + 2*a*need
	if disc < 0 {
		return math.NaN()
	}
	sq := math.Sqrt(disc)
	// Candidate roots.
	r1 := (-v0 + sq) / a
	r2 := (-v0 - sq) / a
	best := math.NaN()
	for _, r := range []float64{r1, r2} {
		if r >= -tol && r <= maxDt+tol {
			if math.IsNaN(best) || r < best {
				best = r
			}
		}
	}
	if !math.IsNaN(best) {
		return max(0, min(best, maxDt))
	}
	return math.NaN()
}

// Shift returns a copy of the profile with its start time moved by dt.
func (p Profile) Shift(dt float64) Profile {
	q := p
	q.StartTime += dt
	q.Phases = append([]Phase(nil), p.Phases...)
	return q
}

// Append returns a copy with an extra phase at the end. The new phase's V0
// must match the current final velocity.
func (p Profile) Append(ph Phase) Profile {
	if len(p.Phases) > 0 && math.Abs(ph.V0-p.FinalVelocity()) > 1e-6 {
		panic(fmt.Sprintf("kinematics: Append velocity discontinuity: %v -> %v", p.FinalVelocity(), ph.V0))
	}
	q := p
	q.Phases = append(append([]Phase(nil), p.Phases...), ph)
	return q
}

// String renders a compact human-readable description of the profile.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profile(t0=%.3f", p.StartTime)
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, " [%.3fs v0=%.2f a=%.2f]", ph.Duration, ph.V0, ph.Accel)
	}
	b.WriteString(")")
	return b.String()
}

// HoldProfile returns a profile that holds velocity v from startTime for the
// given duration.
func HoldProfile(startTime, v, duration float64) Profile {
	return NewProfile(startTime, Phase{Duration: duration, V0: v, Accel: 0})
}

// RampProfile returns a profile that changes speed from v0 to v1 at the
// given (positive) rate magnitude, starting at startTime.
func RampProfile(startTime, v0, v1, rate float64) Profile {
	if rate <= 0 {
		panic("kinematics: RampProfile rate must be positive")
	}
	if v1 == v0 {
		return NewProfile(startTime)
	}
	a := rate
	if v1 < v0 {
		a = -rate
	}
	return NewProfile(startTime, Phase{Duration: math.Abs(v1-v0) / rate, V0: v0, Accel: a})
}
