package batch

import (
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// The registry entry lets the world construct one batch shard per topology
// node without linking a policy switch into the sim package. Batch vehicles
// speak the timed protocol and budget for a reply held through the
// re-organization window, the same window newScheduler configures.
func init() {
	im.RegisterPolicy(PolicyName, im.PolicyEntry{
		Factory:   newScheduler,
		Protocol:  im.ProtocolTimed,
		ReplyHold: DefaultConfig().Window,
	})
}

func newScheduler(x *intersection.Intersection, opts im.PolicyOptions, rng *rand.Rand) (im.Scheduler, error) {
	c := DefaultConfig()
	c.Spec = opts.Spec
	c.Cost = opts.Cost
	c.RefLength, c.RefWidth = opts.RefLength, opts.RefWidth
	if err := opts.ParamsFor(PolicyName).Err(); err != nil {
		return nil, err
	}
	return New(x, c, rng)
}
