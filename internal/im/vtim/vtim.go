// Package vtim implements the plain velocity-transaction baseline
// (paper Chapter 4, Algorithms 1-2): the IM answers each request with a
// single target velocity VT that the vehicle adopts *the moment the reply
// arrives*. Because the reply's arrival time varies with the round-trip
// delay, the vehicle's position when it starts executing is uncertain by up
// to WC-RTD x speed, so the policy must inflate every footprint by the RTD
// buffer (0.45 m on the testbed) in addition to the sensing buffer — the
// throughput cost Crossroads eliminates.
package vtim

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "vt-im"

// Config parameterizes the VT-IM scheduler.
type Config struct {
	// Spec supplies the uncertainty bounds; VT-IM buffers sensing + sync +
	// RTD.
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost im.CostModel
	// Margin is extra temporal clearance between occupancies (s).
	Margin float64
	// MinCrossSpeed floors the granted velocity (m/s).
	MinCrossSpeed float64
	// SlotSlack is the spatial tolerance between the booked arrival and
	// what the held velocity truly achieves (m). Slots deviating more are
	// rejected with a stop command instead of booked. Zero derives
	// two-thirds of the RTD buffer, leaving the rest for delivery jitter.
	SlotSlack float64
	// RefLength and RefWidth are the reference vehicle body dimensions.
	RefLength, RefWidth float64
	// TableStep is the conflict-table sampling resolution (m).
	TableStep float64
	// MinGrantFrac floors granted velocities at this fraction of the
	// vehicle's top speed; slower crossings would monopolize the shared
	// corridor. Zero means the default 0.25.
	MinGrantFrac float64
	// OmitRTDBuffer drops the RTD term from the buffers. This is UNSAFE
	// and exists only for the ablation experiment demonstrating why the
	// buffer (or Crossroads' time-sensitivity) is required.
	OmitRTDBuffer bool
}

// DefaultConfig returns the testbed configuration of the paper.
func DefaultConfig() Config {
	return Config{
		Spec:          safety.TestbedSpec(),
		Cost:          im.TestbedCostModel(),
		Margin:        0.05,
		MinCrossSpeed: 0.1,
		RefLength:     0.568,
		RefWidth:      0.296,
	}
}

// planner implements im.VTPlanner with receive-time anchoring: the IM can
// only assume the vehicle is still at DT when the command takes effect and
// covers the resulting error with the RTD buffer.
type planner struct {
	minSpeed float64
	// slackDist is the spatial deviation the RTD buffer absorbs (m): a
	// booked slot is only valid if the held velocity's true arrival
	// deviates from it by less than this distance at crossing speed.
	slackDist float64
	// minGrantFrac floors the granted velocity at this fraction of the
	// vehicle's top speed: a crawl crossing would monopolize the shared
	// corridor for tens of seconds, so the IM prefers to command a stop.
	minGrantFrac float64
}

// LatestArrival implements im.VTPlanner with no bound: a velocity command
// has no execution time to anchor a committed vehicle's latest arrival to.
func (p planner) LatestArrival(now float64, req im.Request) float64 { return math.Inf(1) }

// VerifySlot implements im.VTPlanner: a held velocity realizes exactly
// one arrival time; if the booked slot's deviation from it exceeds what the
// RTD buffer covers, the vehicle would overrun its reservation, so reject
// the slot.
func (p planner) VerifySlot(now, toa float64, plan im.CrossingPlan, req im.Request) bool {
	if plan.EntrySpeed <= 0 || plan.EntrySpeed < p.minGrantFrac*req.Params.MaxSpeed {
		return false
	}
	dt := max(req.DistToEntry, 0)
	vc := min(max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	prof := kinematics.RampHoldProfile(now, dt, vc, plan.TargetSpeed, req.Params)
	actual := prof.TimeAtDistance(dt)
	if math.IsInf(actual, 1) {
		return false
	}
	return math.Abs(actual-toa)*plan.EntrySpeed <= p.slackDist
}

// planAt builds the crossing plan of a vehicle commanded velocity vt: it
// ramps from vc toward vt over the approach (possibly still ramping at the
// entry) and then holds vt until exit (Algorithm 2).
func planAt(now, toa, dt, vc, vt float64, params kinematics.Params) im.CrossingPlan {
	prof := kinematics.RampHoldProfile(now, max(dt, 1e-3), vc, vt, params)
	vEntry := prof.FinalVelocity()
	if vEntry < vt-1e-9 {
		// Still accelerating at the entry: the ramp finishes inside the
		// box, then the vehicle holds vt.
		plan := im.AccelPlan(toa, vEntry, vt, params.MaxAccel)
		plan.TargetSpeed = vt
		return plan
	}
	return im.ConstantPlan(vt)
}

// Plan implements Algorithm 1's calculateTargetVelocity.
func (p planner) Plan(now float64, req im.Request) (float64, func(float64) im.CrossingPlan, func(float64, im.CrossingPlan) im.Response, error) {
	if err := req.Params.Validate(); err != nil {
		return 0, nil, nil, err
	}
	vc := min(max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	dt := max(req.DistToEntry, 0)
	etaDelay, _ := kinematics.EarliestArrival(dt, vc, req.Params)
	earliest := now + etaDelay
	planFor := func(toa float64) im.CrossingPlan {
		if toa <= earliest+1e-6 {
			// Earliest arrival = full-throttle command.
			return planAt(now, toa, dt, vc, req.Params.MaxSpeed, req.Params)
		}
		vt, err := kinematics.VTArrival(dt, vc, toa-now, req.Params)
		if err != nil || vt < p.minSpeed {
			vt = p.minSpeed
		}
		return planAt(now, toa, dt, vc, vt, req.Params)
	}
	respond := func(toa float64, plan im.CrossingPlan) im.Response {
		return im.Response{Kind: im.RespVelocity, TargetSpeed: plan.TargetSpeed}
	}
	return earliest, planFor, respond, nil
}

// New builds the VT-IM scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*im.VTCore, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinCrossSpeed <= 0 {
		return nil, fmt.Errorf("vtim: MinCrossSpeed %v must be positive", cfg.MinCrossSpeed)
	}
	buffers := cfg.Spec.ForVTIM()
	name := PolicyName
	if cfg.OmitRTDBuffer {
		buffers = cfg.Spec.ForCrossroads() // sensing-only: unsafe ablation
		name = PolicyName + "-nobuf"
	}
	slack := cfg.SlotSlack
	if slack <= 0 {
		slack = cfg.Spec.RTDBuffer() * 2 / 3
	}
	grant := cfg.MinGrantFrac
	if grant <= 0 {
		grant = 0.25
	}
	return im.NewVTCore(name, x, planner{minSpeed: cfg.MinCrossSpeed, slackDist: slack, minGrantFrac: grant}, im.VTCoreConfig{
		Buffers:       buffers,
		Margin:        cfg.Margin,
		SpatialMargin: 2 * cfg.Spec.SensingBuffer(),
		Cost:          cfg.Cost,
		TableStep:     cfg.TableStep,
		RefLength:     cfg.RefLength,
		RefWidth:      cfg.RefWidth,
		WCRTD:         cfg.Spec.WorstRTD,
	}, rng)
}
