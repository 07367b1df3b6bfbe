// Package core implements Crossroads, the paper's time-sensitive
// intersection-management technique (Chapter 6, Algorithms 7-8).
//
// A Crossroads request carries the vehicle's transmit timestamp TT
// (captured on its NTP-synchronized clock), its distance to the
// intersection DT, and its current velocity VC. The IM fixes the command
// execution time
//
//	TE = TT + WC-RTD
//
// and plans the vehicle's trajectory *from TE*, at which point the vehicle
// — having held VC since transmitting — is deterministically at distance
//
//	DE = DT - VC*(TE - TT)
//
// from the box entry, regardless of how long the round trip actually took.
// The IM then computes the earliest conflict-free arrival time ToA >= the
// earliest reachable arrival
//
//	EToA = TE + TAcc + (DE - DeltaX)/Vmax,
//	TAcc = (Vmax - Vinit)/amax,  DeltaX = 0.5*amax*TAcc^2 + Vinit*TAcc
//
// and replies (TE, ToA, VT). Because the position at TE is deterministic,
// no round-trip-delay buffer is needed — only the sensing and clock-sync
// buffer (78 mm on the testbed instead of VT-IM's 528 mm).
package core

import (
	"fmt"
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/safety"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "crossroads"

// Config parameterizes the Crossroads scheduler.
type Config struct {
	// Spec supplies the uncertainty bounds; Crossroads buffers sensing +
	// sync only.
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost im.CostModel
	// Margin is extra temporal clearance between occupancies (s).
	Margin float64
	// MinCrossSpeed floors the granted crossing speed so occupancy windows
	// stay finite (m/s).
	MinCrossSpeed float64
	// RefLength and RefWidth are the reference vehicle body dimensions.
	RefLength, RefWidth float64
	// TableStep is the conflict-table sampling resolution (m).
	TableStep float64
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

// planner implements im.VTPlanner with the time-sensitive anchoring.
type planner struct {
	wcRTD    float64
	minSpeed float64
	// lipDist is the reference vehicle's safety.Spec.LipDist.
	lipDist float64
	// window is a re-organization window (s) an uncommitted request's
	// command waits out before TE; 0 for Crossroads itself.
	window float64
}

// anchor anchors the request's command at TE = TT + window + WC-RTD, or
// at TT + WC-RTD for a committed truth report, which no window holds.
func (p planner) anchor(req im.Request) im.Anchor {
	te := req.TransmitTime
	if !req.Committed {
		te += p.window
	}
	return im.AnchorRequest(req, te+p.wcRTD, p.minSpeed)
}

// LatestArrival implements im.VTPlanner: the latest arrival the vehicle
// can safely realize from the request's state (im.Anchor.Latest).
func (p planner) LatestArrival(now float64, req im.Request) float64 {
	latest, _ := p.anchor(req).Latest(p.lipDist)
	return latest
}

// VerifySlot implements im.VTPlanner: reject slots whose approach plan
// dwells (or crawls below 0.3 m/s) within the lip of the box — the vehicle
// must instead stop at the stop line (behind the lip) and retry.
func (p planner) VerifySlot(now, toa float64, plan im.CrossingPlan, req im.Request) bool {
	return p.anchor(req).Realizable(toa, p.lipDist)
}

// Plan implements Algorithm 7's calculateActuationTime and
// calculateTargetArrivalTime. Granted vehicles arrive at ToA at the plan's
// entry speed and then accelerate to top speed through the box — the
// max-acceleration crossing of the paper's Fig. 6.2.
func (p planner) Plan(now float64, req im.Request) (float64, func(float64) im.CrossingPlan, func(float64, im.CrossingPlan) im.Response, error) {
	if err := req.Params.Validate(); err != nil {
		return 0, nil, nil, err
	}
	a := p.anchor(req)
	earliest, vEarliest := a.Earliest()
	planFor := func(toa float64) im.CrossingPlan { return a.Plan(toa, earliest, vEarliest) }
	respond := func(toa float64, plan im.CrossingPlan) im.Response {
		return im.Response{
			Kind:        im.RespTimed,
			TargetSpeed: plan.EntrySpeed,
			ExecuteAt:   a.TE,
			ArriveAt:    toa,
		}
	}
	return earliest, planFor, respond, nil
}

// Planner builds the Crossroads time-sensitive planner from the config.
// Derived policies (signalized, auction) embed it to reuse the exact TE/DE
// anchoring.
func (cfg Config) Planner() (im.VTPlanner, error) { return cfg.WindowedPlanner(0) }

// WindowedPlanner is Planner with a re-organization window inside the
// anchoring: an uncommitted request's command executes at
// TE = TT + window + WC-RTD, so a reply held through the window still
// finds the vehicle where the IM planned it (the batch policy).
func (cfg Config) WindowedPlanner(window float64) (im.VTPlanner, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinCrossSpeed <= 0 {
		return nil, fmt.Errorf("core: MinCrossSpeed %v must be positive", cfg.MinCrossSpeed)
	}
	lip := cfg.Spec.LipDist(cfg.RefLength, cfg.RefWidth)
	return planner{wcRTD: cfg.Spec.WorstRTD, minSpeed: cfg.MinCrossSpeed, lipDist: lip, window: window}, nil
}

// VTConfig returns the shared-scheduler configuration Crossroads runs with,
// for policies that reuse its book, buffers, and margins.
func (cfg Config) VTConfig() im.VTCoreConfig {
	return im.VTCoreConfig{
		Buffers:       cfg.Spec.ForCrossroads(),
		Margin:        cfg.Margin,
		SpatialMargin: 2 * cfg.Spec.SensingBuffer(),
		Cost:          cfg.Cost,
		TableStep:     cfg.TableStep,
		RefLength:     cfg.RefLength,
		RefWidth:      cfg.RefWidth,
		WCRTD:         cfg.Spec.WorstRTD,
	}
}

// New builds the Crossroads scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*im.VTCore, error) {
	p, err := cfg.Planner()
	if err != nil {
		return nil, err
	}
	return im.NewVTCore(PolicyName, x, p, cfg.VTConfig(), rng)
}
