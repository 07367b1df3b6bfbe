// Package auction implements a priority-bidding intersection manager in
// the spirit of auction-based AIM (arxiv 2311.17681): contested slots go
// to the highest bidder rather than strictly to the first requester.
//
// Bids come from per-vehicle priority classes. A request's Priority field
// is the bid; vehicles with no class assigned (Priority 0) can still be
// promoted deterministically by the Emergency knob, which designates every
// Nth vehicle ID an emergency responder — useful for sweeps where the
// demand generator does not tag classes itself.
//
// The scheduler is the Crossroads planner plus two auction mechanisms in
// the shared core: bid-weighted seniority (a higher bidder's queue
// position dominates any lower bidder's, so its holds are invisible to
// the winner's slot search) and verified preemption (a positive bidder
// may evict lower-bid reservations outright when doing so buys at least
// half a second, with the displaced vehicles revised onto later slots and
// the whole attempt rolled back unless every conflict resolves). Safety
// is inherited: every granted plan still clears the same reservation
// book, so losing an auction delays a vehicle but never endangers it.
package auction

import (
	"fmt"
	"math/rand"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "auction"

// Config parameterizes the auction policy.
type Config struct {
	// Core supplies the Crossroads anchoring, buffers, and cost model.
	Core core.Config
	// Emergency promotes every Nth vehicle ID to the emergency class
	// (bid 2) when the request itself carries no priority. 0 disables.
	Emergency int64
}

// DefaultConfig tags roughly one vehicle in sixteen as an emergency.
func DefaultConfig() Config {
	return Config{Core: core.DefaultConfig(), Emergency: 16}
}

// planner wraps the Crossroads planner with the bidding rule.
type planner struct {
	im.VTPlanner
	emergency int64
}

// Bid implements im.PriorityPolicy: the request's own priority class, or
// the Emergency promotion for untagged vehicles.
func (p *planner) Bid(req im.Request) int64 {
	if req.Priority > 0 {
		return int64(req.Priority)
	}
	if p.emergency > 0 && req.VehicleID%p.emergency == 0 {
		return 2
	}
	return 0
}

// New builds the auction scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*im.VTCore, error) {
	if cfg.Emergency < 0 {
		return nil, fmt.Errorf("auction: Emergency %v must not be negative", cfg.Emergency)
	}
	inner, err := cfg.Core.Planner()
	if err != nil {
		return nil, err
	}
	p := &planner{
		VTPlanner: inner,
		emergency: cfg.Emergency,
	}
	return im.NewVTCore(PolicyName, x, p, cfg.Core.VTConfig(), rng)
}
