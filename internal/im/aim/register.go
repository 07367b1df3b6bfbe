package aim

import (
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
)

// The registry entry lets the world construct one AIM shard per topology
// node without linking a policy switch into the sim package.
func init() {
	im.RegisterPolicy(PolicyName, func(x *intersection.Intersection, opts im.PolicyOptions, rng *rand.Rand) (im.Scheduler, error) {
		c := DefaultConfig()
		c.Spec = opts.Spec
		c.Cost = opts.Cost
		p := opts.ParamsFor(PolicyName)
		c.GridN = p.Int("grid", c.GridN)
		c.TimeStep = p.Float("step", c.TimeStep)
		if err := p.Err(); err != nil {
			return nil, err
		}
		return New(x, c, rng)
	})
}
