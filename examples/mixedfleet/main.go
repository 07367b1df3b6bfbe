// Mixedfleet: a heterogeneous fleet — compact cars and long, slow trucks —
// shares one Crossroads-managed intersection. The IM sizes its conflict
// table for the largest vehicle and headways from each vehicle's own
// buffer-inflated length, so mixing works out of the box.
//
//	go run ./examples/mixedfleet
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/traffic"
)

func main() {
	car := kinematics.FullScaleParams()
	truck := kinematics.Params{
		MaxSpeed:  12,
		MaxAccel:  1.5,
		MaxDecel:  3.5,
		Length:    12,
		Width:     2.5,
		Wheelbase: 6.5,
	}

	// Build the workload: Poisson cars, then every fourth vehicle becomes
	// a truck arriving at its own (lower) top speed.
	rng := rand.New(rand.NewSource(5))
	arrivals, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         0.15,
		NumVehicles:  60,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       car,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	trucks := 0
	for i := range arrivals {
		if i%4 == 3 {
			arrivals[i].Params = truck
			arrivals[i].Speed = truck.MaxSpeed
			trucks++
		}
	}

	cfg, err := sim.NewConfig(
		sim.WithPolicy("crossroads"),
		sim.WithSeed(5),
		sim.WithIntersection(intersection.FullScaleConfig()),
		sim.WithSpec(safety.FullScaleSpec()),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(cfg, arrivals)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("mixed fleet: %d cars + %d trucks under %s\n", len(arrivals)-trucks, trucks, res.Policy)
	fmt.Printf("crossed %d/%d, collisions %d, buffer violations %d\n\n",
		res.Summary.Completed, len(arrivals), res.Summary.Collisions, res.Summary.BufferViolations)

	// Split wait statistics by vehicle class.
	var carWaits, truckWaits []float64
	for i, v := range res.Vehicles {
		if !v.Done {
			continue
		}
		if i%4 == 3 {
			truckWaits = append(truckWaits, v.WaitTime())
		} else {
			carWaits = append(carWaits, v.WaitTime())
		}
	}
	sort.Float64s(carWaits)
	sort.Float64s(truckWaits)
	t := metrics.NewTable("class", "n", "mean wait (s)", "p95 wait (s)")
	t.AddRow("car", len(carWaits), metrics.Mean(carWaits), metrics.Percentile(carWaits, 0.95))
	t.AddRow("truck", len(truckWaits), metrics.Mean(truckWaits), metrics.Percentile(truckWaits, 0.95))
	fmt.Print(t.String())
}
