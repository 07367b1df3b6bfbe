// Package plant models the physical vehicle: the ground truth the agents
// only see through noisy sensors and imperfect actuation. The longitudinal
// state (arc position and speed along the movement path) integrates the
// commanded speed subject to the acceleration limits plus a bounded
// Ornstein-Uhlenbeck actuation disturbance; sensors add noise on top. These
// are the error sources the paper's Chapter 3 calibration experiment
// measures (Elong = +-75 mm on the testbed) and the safety buffer must
// cover.
package plant

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/geom"
	"crossroads/internal/kinematics"
)

// NoiseConfig parameterizes the disturbance and sensor models.
type NoiseConfig struct {
	// ActSigma is the diffusion of the OU velocity disturbance
	// (m/s per sqrt(s)).
	ActSigma float64
	// ActTheta is the OU mean-reversion rate (1/s).
	ActTheta float64
	// ActBound hard-limits the disturbance magnitude (m/s) — physical
	// drivetrains cannot err unboundedly.
	ActBound float64
	// SensPosSigma is the position (encoder) measurement noise (m).
	SensPosSigma float64
	// SensVelSigma is the speed measurement noise (m/s).
	SensVelSigma float64
}

// TestbedNoise returns the calibrated testbed disturbance: it produces
// worst-case longitudinal errors around the paper's measured 75 mm in the
// Chapter 3 experiment when driven by the standard position-servo
// controller.
func TestbedNoise() NoiseConfig {
	return NoiseConfig{
		ActSigma:     0.08,
		ActTheta:     2.0,
		ActBound:     0.10,
		SensPosSigma: 0.003,
		SensVelSigma: 0.02,
	}
}

// NoNoise returns a perfectly ideal plant configuration, for tests that
// need determinism.
func NoNoise() NoiseConfig { return NoiseConfig{} }

// Draws reports whether a plant with this configuration ever draws from
// its random source: only the disturbance and the two sensors do, each
// when its sigma is positive.
func (n NoiseConfig) Draws() bool {
	return n.ActSigma > 0 || n.SensPosSigma > 0 || n.SensVelSigma > 0
}

// Plant is one physical vehicle constrained to a movement path.
type Plant struct {
	Params kinematics.Params
	Path   geom.Path

	s, v  float64 // ground truth arc position and speed
	base  float64 // disturbance-free velocity state the actuator tracks
	noise NoiseConfig
	dist  float64 // current OU disturbance value (velocity offset)
	rng   *rand.Rand
}

// New places a vehicle at arc position s0 with speed v0 on the path.
func New(path geom.Path, params kinematics.Params, s0, v0 float64, noise NoiseConfig, rng *rand.Rand) (*Plant, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if path == nil {
		return nil, fmt.Errorf("plant: nil path")
	}
	if v0 < 0 {
		return nil, fmt.Errorf("plant: negative initial speed %v", v0)
	}
	return &Plant{Params: params, Path: path, s: s0, v: v0, base: v0, noise: noise, rng: rng}, nil
}

// Step advances the plant by dt seconds toward the commanded speed vCmd.
// The achieved speed is rate-limited by the acceleration envelope and
// perturbed by the actuation disturbance; position integrates the
// trapezoidal mean of the speed. Speed never goes negative and never
// exceeds MaxSpeed (a physical governor).
func (p *Plant) Step(vCmd, dt float64) {
	if dt <= 0 {
		return
	}
	vCmd = geom.Clamp(vCmd, 0, p.Params.MaxSpeed)
	// Rate-limit the disturbance-free velocity state toward the command.
	dv := geom.Clamp(vCmd-p.base, -p.Params.MaxDecel*dt, p.Params.MaxAccel*dt)
	p.base = geom.Clamp(p.base+dv, 0, p.Params.MaxSpeed)
	// OU disturbance: dn = -theta*n*dt + sigma*sqrt(dt)*xi, hard-bounded.
	// It perturbs the achieved speed as an offset — it must not integrate
	// into the velocity state itself, or it would act as an unbounded
	// acceleration.
	if p.noise.ActSigma > 0 && p.rng != nil {
		p.dist += -p.noise.ActTheta*p.dist*dt + p.noise.ActSigma*math.Sqrt(dt)*p.rng.NormFloat64()
		p.dist = geom.Clamp(p.dist, -p.noise.ActBound, p.noise.ActBound)
	}
	// Disturbance fades at low speeds: a held (braked) vehicle does not
	// creep because of drivetrain noise.
	fade := geom.Clamp(p.base/0.3, 0, 1)
	vNew := geom.Clamp(p.base+p.dist*fade, 0, p.Params.MaxSpeed)
	p.s += (p.v + vNew) / 2 * dt
	p.v = vNew
}

// S returns the true arc position.
func (p *Plant) S() float64 { return p.s }

// V returns the true speed.
func (p *Plant) V() float64 { return p.v }

// MeasuredS returns the position as seen by the vehicle's own sensors.
func (p *Plant) MeasuredS() float64 {
	if p.noise.SensPosSigma > 0 && p.rng != nil {
		return p.s + p.rng.NormFloat64()*p.noise.SensPosSigma
	}
	return p.s
}

// MeasuredV returns the speed as seen by the vehicle's own sensors.
func (p *Plant) MeasuredV() float64 {
	if p.noise.SensVelSigma > 0 && p.rng != nil {
		return max(0, p.v+p.rng.NormFloat64()*p.noise.SensVelSigma)
	}
	return p.v
}

// Pose returns the ground-truth 2-D pose on the path.
func (p *Plant) Pose() geom.Pose { return p.Path.PoseAt(p.s) }

// Footprint returns the ground-truth body rectangle.
func (p *Plant) Footprint() geom.Rect {
	pose := p.Pose()
	return geom.NewRect(pose.Pos, p.Params.Length, p.Params.Width, pose.Heading)
}

// BufferedFootprint returns the body inflated longitudinally/laterally —
// the planning footprint whose non-overlap the policies guarantee.
func (p *Plant) BufferedFootprint(long, lat float64) geom.Rect {
	return p.Footprint().Inflate(long, lat)
}
