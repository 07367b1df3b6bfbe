// Package traffic generates the vehicle arrival workloads of the paper's
// evaluation: Poisson per-lane input flows for the scalability study
// (§7.2, Fig. 7.2) and the ten scale-model scenarios of §7.1 (Fig. 7.1),
// with scenario 1 the pre-designed worst case (simultaneous arrivals on
// every approach) and scenario 10 the pre-designed best case (sparse
// traffic).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/topology"
)

// Arrival is one vehicle reaching the transmission line.
type Arrival struct {
	ID       int64
	Movement intersection.MovementID
	// Time is when the vehicle crosses the transmission line (seconds).
	Time float64
	// Speed is the vehicle's speed at the transmission line.
	Speed float64
	// Params are the vehicle's physical capabilities.
	Params kinematics.Params
	// Node is the topology node whose transmission line the vehicle
	// crosses first (always 0 on single-intersection workloads).
	Node int
	// OnwardTurns are the turn choices for the route legs after the first
	// (Movement.Turn covers the entry intersection). The world resolves
	// them against the topology; turns that would leave the grid or
	// revisit a node truncate the route there. Empty on single-
	// intersection workloads.
	OnwardTurns []intersection.Turn
}

// TurnMix is the probability of each turn choice; entries must sum to 1.
type TurnMix struct {
	Straight, Left, Right float64
}

// DefaultTurnMix matches typical urban splits: 60% through, 20% each turn.
func DefaultTurnMix() TurnMix { return TurnMix{Straight: 0.6, Left: 0.2, Right: 0.2} }

// Validate reports whether the mix is a probability distribution.
func (m TurnMix) Validate() error {
	if m.Straight < 0 || m.Left < 0 || m.Right < 0 {
		return fmt.Errorf("traffic: negative turn probability %+v", m)
	}
	if s := m.Straight + m.Left + m.Right; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("traffic: turn mix sums to %v, want 1", s)
	}
	return nil
}

// sample draws a turn from the mix.
func (m TurnMix) sample(rng *rand.Rand) intersection.Turn {
	u := rng.Float64()
	switch {
	case u < m.Straight:
		return intersection.Straight
	case u < m.Straight+m.Left:
		return intersection.Left
	default:
		return intersection.Right
	}
}

// PoissonConfig parameterizes the random workload generator.
type PoissonConfig struct {
	// Rate is the input flow in vehicles per second per lane — the
	// x-axis of Fig. 7.2 (0.05 to 1.25 in the paper).
	Rate float64
	// NumVehicles is the total fleet size routed through the
	// intersection (160 in the paper).
	NumVehicles int
	// LanesPerRoad and the four approaches define the entry lanes.
	LanesPerRoad int
	// Mix selects turns.
	Mix TurnMix
	// Params is the common vehicle type.
	Params kinematics.Params
	// Speed is the speed at the transmission line; 0 means Params.MaxSpeed.
	Speed float64
	// MinHeadway is the minimum same-lane spacing in seconds between
	// consecutive arrivals (prevents physically overlapping spawns);
	// 0 derives it from vehicle length and speed.
	MinHeadway float64
}

// Poisson generates a sorted single-intersection arrival sequence: each
// entry lane receives an independent Poisson process of the configured
// rate, and vehicles are drawn until NumVehicles have been produced across
// all lanes. It is PoissonRoutes over topology.Single() with one leg per
// route, so no onward turn is drawn.
func Poisson(cfg PoissonConfig, rng *rand.Rand) ([]Arrival, error) {
	return PoissonRoutes(cfg, topology.Single(), 1, rng)
}

// NumScaleScenarios is the number of scale-model test scenarios (§7.1).
const NumScaleScenarios = 10

// ScaleScenario builds scenario n (1-based) of the §7.1 experiment with
// five vehicles of the scale-model type:
//
//   - Scenario 1 is the designed worst case: simultaneous arrivals on all
//     four approaches plus a fifth trailing vehicle.
//   - Scenario 10 is the designed best case: arrivals spread far apart.
//   - Scenarios 2-9 draw random approach orders and spacings from rng,
//     denser for lower scenario numbers.
//
// Repetitions with different rng seeds model the paper's 10 repeated runs.
func ScaleScenario(n int, rng *rand.Rand) ([]Arrival, error) {
	if n < 1 || n > NumScaleScenarios {
		return nil, fmt.Errorf("traffic: scenario %d out of 1..%d", n, NumScaleScenarios)
	}
	params := kinematics.ScaleModelParams()
	const fleet = 5
	mk := func(i int, a intersection.Approach, turn intersection.Turn, t float64) Arrival {
		return Arrival{
			ID:       int64(i + 1),
			Movement: intersection.MovementID{Approach: a, Lane: 0, Turn: turn},
			Time:     t,
			Speed:    params.MaxSpeed,
			Params:   params,
		}
	}
	var out []Arrival
	switch n {
	case 1:
		// Worst case: four simultaneous arrivals, one per approach, plus a
		// fifth right behind the first.
		for a := intersection.East; a < intersection.NumApproaches; a++ {
			out = append(out, mk(int(a), a, intersection.Straight, 0))
		}
		out = append(out, mk(4, intersection.East, intersection.Straight, 0.6))
	case NumScaleScenarios:
		// Best case: sparse arrivals, 4 s apart — free-flowing.
		for i := 0; i < fleet; i++ {
			a := intersection.Approach(i % intersection.NumApproaches)
			out = append(out, mk(i, a, intersection.Straight, float64(i)*4))
		}
	default:
		// Random order/spacing; lower scenario numbers compress the window.
		window := float64(n-1) * 1.1
		turns := []intersection.Turn{intersection.Straight, intersection.Left, intersection.Right}
		for i := 0; i < fleet; i++ {
			a := intersection.Approach(rng.Intn(intersection.NumApproaches))
			turn := turns[rng.Intn(len(turns))]
			out = append(out, mk(i, a, turn, rng.Float64()*window))
		}
		// Enforce same-lane spawn separation.
		sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
		last := make(map[intersection.Approach]float64)
		minGap := 2 * params.Length / params.MaxSpeed
		for i := range out {
			a := out[i].Movement.Approach
			if prev, ok := last[a]; ok && out[i].Time < prev+minGap {
				out[i].Time = prev + minGap
			}
			last[a] = out[i].Time
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
