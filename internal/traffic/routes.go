package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"crossroads/internal/intersection"
	"crossroads/internal/topology"
)

// PoissonRoutes generates a sorted arrival sequence over a topology: every
// boundary entry lane (an approach with no upstream intersection feeding
// it) receives an independent Poisson process of cfg.Rate, and each vehicle
// additionally draws maxLegs-1 onward turns from cfg.Mix for the
// intersections beyond its entry node. The world resolves the turn list
// against the topology, so a route simply ends where it would leave the
// grid.
//
// maxLegs <= 0 derives the topology's diameter (rows+cols-1), enough for
// any loop-free straight-biased route to span the grid; on
// topology.Single() that is one leg, which draws no onward turn (Poisson
// is exactly that call). A maxLegs above 1 draws onward turns even where
// the route cannot use them, so it consumes extra rng values.
func PoissonRoutes(cfg PoissonConfig, topo *topology.Topology, maxLegs int, rng *rand.Rand) ([]Arrival, error) {
	if topo == nil {
		return nil, fmt.Errorf("traffic: nil topology")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("traffic: rate %v must be positive", cfg.Rate)
	}
	if cfg.NumVehicles <= 0 {
		return nil, fmt.Errorf("traffic: NumVehicles %d must be positive", cfg.NumVehicles)
	}
	if cfg.LanesPerRoad < 1 {
		return nil, fmt.Errorf("traffic: LanesPerRoad %d must be >= 1", cfg.LanesPerRoad)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = cfg.Params.MaxSpeed
	}
	if speed > cfg.Params.MaxSpeed {
		return nil, fmt.Errorf("traffic: speed %v exceeds MaxSpeed %v", speed, cfg.Params.MaxSpeed)
	}
	minHeadway := cfg.MinHeadway
	if minHeadway <= 0 {
		// Rear-to-front clearance of one body length at line speed.
		minHeadway = 2 * cfg.Params.Length / speed
	}
	if maxLegs <= 0 {
		maxLegs = topo.Diameter()
	}

	type laneKey struct {
		entry topology.EntryPoint
		lane  int
	}
	entries := topo.EntryPoints()
	lanes := make([]laneKey, 0, len(entries)*cfg.LanesPerRoad)
	for _, ep := range entries {
		for l := 0; l < cfg.LanesPerRoad; l++ {
			lanes = append(lanes, laneKey{ep, l})
		}
	}
	clock := make(map[laneKey]float64, len(lanes))

	var out []Arrival
	var id int64
	// Round-robin draws keep entry lanes statistically identical while
	// letting us stop exactly at NumVehicles.
	for len(out) < cfg.NumVehicles {
		for _, lk := range lanes {
			if len(out) >= cfg.NumVehicles {
				break
			}
			gap := rng.ExpFloat64() / cfg.Rate
			if gap < minHeadway {
				gap = minHeadway
			}
			clock[lk] += gap
			id++
			turn0 := cfg.Mix.sample(rng)
			var onward []intersection.Turn
			for k := 1; k < maxLegs; k++ {
				onward = append(onward, cfg.Mix.sample(rng))
			}
			out = append(out, Arrival{
				ID:          id,
				Movement:    intersection.MovementID{Approach: lk.entry.Approach, Lane: lk.lane, Turn: turn0},
				Time:        clock[lk],
				Speed:       speed,
				Params:      cfg.Params,
				Node:        int(lk.entry.Node),
				OnwardTurns: onward,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}
