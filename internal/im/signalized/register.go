package signalized

import (
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// The registry entry lets the world construct one signalized shard per
// topology node without linking a policy switch into the sim package, and
// declares the timed protocol its vehicles speak.
func init() {
	im.RegisterPolicy(PolicyName, im.PolicyEntry{Factory: newScheduler, Protocol: im.ProtocolTimed})
}

func newScheduler(x *intersection.Intersection, opts im.PolicyOptions, rng *rand.Rand) (im.Scheduler, error) {
	c := DefaultConfig()
	c.Core.Spec = opts.Spec
	c.Core.Cost = opts.Cost
	c.Core.RefLength, c.Core.RefWidth = opts.RefLength, opts.RefWidth
	p := opts.ParamsFor(PolicyName)
	c.Green = p.Float("green", c.Green)
	c.AllRed = p.Float("allred", c.AllRed)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return New(x, c, rng)
}
