package core

import (
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// The registry entry lets the world construct one Crossroads shard per
// topology node without linking a policy switch into the sim package, and
// declares the timed protocol its vehicles speak.
func init() {
	im.RegisterPolicy(PolicyName, im.PolicyEntry{Factory: newScheduler, Protocol: im.ProtocolTimed})
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
