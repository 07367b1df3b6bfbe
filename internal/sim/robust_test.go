package sim

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
)

// TestRobustnessMatrix sweeps seeds x rates x policies x geometries counting
// safety events. Run with CROSSROADS_ROBUST=1 (several minutes).
func TestRobustnessMatrix(t *testing.T) {
	if os.Getenv("CROSSROADS_ROBUST") == "" {
		t.Skip("set CROSSROADS_ROBUST=1 to run")
	}
	type world struct {
		name   string
		inter  intersection.Config
		spec   safety.Spec
		params kinematics.Params
	}
	worlds := []world{
		{"scale", intersection.ScaleModelConfig(), safety.TestbedSpec(), kinematics.ScaleModelParams()},
		{"full", intersection.FullScaleConfig(), safety.FullScaleSpec(), kinematics.FullScaleParams()},
		{"mixed", intersection.FullScaleConfig(), safety.FullScaleSpec(), kinematics.FullScaleParams()},
	}
	truck := kinematics.Params{MaxSpeed: 12, MaxAccel: 1.5, MaxDecel: 3.5, Length: 12, Width: 2.5, Wheelbase: 6.5}
	events := 0
	for _, wl := range worlds {
		for _, rate := range []float64{0.2, 0.6, 1.0} {
			for seed := int64(1); seed <= 5; seed++ {
				arr, err := traffic.Poisson(traffic.PoissonConfig{
					Rate: rate, NumVehicles: 80, LanesPerRoad: 1,
					Mix: traffic.DefaultTurnMix(), Params: wl.params,
				}, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if wl.name == "mixed" {
					// Every fourth vehicle becomes a straight-through truck.
					for i := range arr {
						if i%4 == 3 {
							arr[i].Params = truck
							arr[i].Speed = truck.MaxSpeed
							arr[i].Movement.Turn = intersection.Straight
						}
					}
				}
				policies := []string{"vt-im", "aim", "crossroads"}
				if wl.name == "full" {
					// The batching extension needs approaches long enough
					// to cover its window+RTD command latency while
					// staying stop-capable; the 3 m scale approach is not
					// (a documented Tachet-design constraint).
					policies = append(policies, "batch")
				}
				for _, pol := range policies {
					res, err := Run(Config{
						Policy: pol, Seed: seed,
						Intersection: wl.inter, Spec: wl.spec,
					}, arr)
					if err != nil {
						t.Fatal(err)
					}
					if res.Summary.Collisions > 0 || res.Summary.BufferViolations > 0 || res.Incomplete > 0 {
						// Documented baseline tails (never allowed for
						// Crossroads or batch, which must stay spotless):
						//  - AIM's yes/no protocol cannot revise stale
						//    grants, so it keeps rare grazes under
						//    saturation — worse with heterogeneous
						//    footprints (the paper's QB-IM criticism);
						//  - VT-IM *collapses* under load (the paper's
						//    central claim), so in the saturated mixed
						//    world a couple of vehicles may still be
						//    queued when the run's time cap hits. Hard
						//    safety (no contact) is still required.
						allowedTail := false
						switch res.Policy {
						case "aim":
							allowedTail = res.Summary.Collisions <= 1 &&
								(rate >= 1.0 || wl.name == "mixed") &&
								res.Incomplete == 0
						case "vt-im":
							allowedTail = res.Summary.Collisions == 0 &&
								res.Summary.BufferViolations == 0 &&
								wl.name == "mixed" && res.Incomplete <= 3
						}
						if allowedTail {
							fmt.Printf("allowed %s tail %s rate=%.1f seed=%d: col=%d buf=%d\n",
								res.Policy, wl.name, rate, seed, res.Summary.Collisions, res.Summary.BufferViolations)
							continue
						}
						events++
						fmt.Printf("EVENT %s rate=%.1f seed=%d %s: col=%d buf=%d inc=%d\n",
							wl.name, rate, seed, res.Policy,
							res.Summary.Collisions, res.Summary.BufferViolations, res.Incomplete)
					}
				}
			}
		}
	}
	if events > 0 {
		t.Errorf("%d runs with safety events", events)
	}
}
