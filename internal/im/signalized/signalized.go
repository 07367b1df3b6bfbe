// Package signalized implements the fixed-phase traffic-light baseline:
// the pre-AV status quo the paper's speedup claims are ultimately stated
// against. Each approach gets an exclusive green window in a fixed
// rotation (East, North, West, South) separated by an all-red clearance
// interval; arrivals are only granted inside the requesting movement's
// green.
//
// The scheduler reuses the Crossroads machinery end to end — the same
// TE/DE time-sensitive anchoring, the same reservation book — and layers
// the phase table on top through the im.ArrivalWindower hook: the book
// still guarantees conflict-free crossings (so a committed vehicle that
// physically cannot stop is granted even in red), while plannable
// vehicles are held at the stop line until their phase. A vehicle whose
// aligned arrival is not realizable without crawling into the box simply
// receives a stop command and retries — exactly a driver waiting out a
// red light.
package signalized

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "signalized"

// Config parameterizes the signal plan.
type Config struct {
	// Core supplies the Crossroads anchoring, buffers, and cost model.
	Core core.Config
	// Green is each approach's green-window duration (s).
	Green float64
	// AllRed is the clearance interval between consecutive greens (s).
	AllRed float64
}

// DefaultConfig returns a four-phase plan with testbed-scaled clearance.
func DefaultConfig() Config {
	return Config{Core: core.DefaultConfig(), Green: 8, AllRed: 2}
}

// planner wraps the Crossroads planner with the phase table.
type planner struct {
	im.VTPlanner
	// phase is one approach's share of the cycle (green + all-red).
	green, phase, cycle float64
}

// AlignArrival implements im.ArrivalWindower: the movement's approach is
// green during [k*cycle + approach*phase, ... + green] for every cycle k.
func (p *planner) AlignArrival(m intersection.MovementID, t float64) (float64, float64) {
	off := float64(int(m.Approach)) * p.phase
	s := off + math.Floor((t-off)/p.cycle)*p.cycle
	if t <= s+p.green {
		return s, s + p.green
	}
	return s + p.cycle, s + p.cycle + p.green
}

// New builds the signalized scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*im.VTCore, error) {
	if cfg.Green <= 0 {
		return nil, fmt.Errorf("signalized: Green %v must be positive", cfg.Green)
	}
	if cfg.AllRed < 0 {
		return nil, fmt.Errorf("signalized: AllRed %v must not be negative", cfg.AllRed)
	}
	inner, err := cfg.Core.Planner()
	if err != nil {
		return nil, err
	}
	phase := cfg.Green + cfg.AllRed
	p := &planner{
		VTPlanner: inner,
		green:     cfg.Green,
		phase:     phase,
		cycle:     float64(intersection.NumApproaches) * phase,
	}
	return im.NewVTCore(PolicyName, x, p, cfg.Core.VTConfig(), rng)
}
