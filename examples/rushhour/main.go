// Rushhour: saturate a full-scale single-lane four-way with heavy Poisson
// traffic and compare all three intersection-management policies head to
// head — the paper's §7.2 story in one run.
//
//	go run ./examples/rushhour
package main

import (
	"fmt"
	"log"
	"math/rand"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/traffic"
)

func main() {
	const (
		rate = 0.6 // car/lane/second — well past VT-IM's saturation point
		cars = 120
		seed = 99
	)
	arrivals, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         rate,
		NumVehicles:  cars,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.FullScaleParams(),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rush hour: %d cars at %.2f car/s/lane through a full-scale four-way\n\n", cars, rate)
	t := metrics.NewTable("policy", "mean wait (s)", "p95 wait (s)", "throughput", "messages", "IM busy (s)", "collisions")
	for _, pol := range []string{"vt-im", "aim", "crossroads"} {
		cfg, err := sim.NewConfig(
			sim.WithPolicy(pol),
			sim.WithSeed(seed),
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
		t.AddRow(res.Policy, res.Summary.MeanWait, res.Summary.P95Wait,
			res.Summary.Throughput, res.Summary.Messages,
			res.Summary.SchedulerSimDelay, res.Summary.Collisions)
	}
	fmt.Print(t.String())
	fmt.Println("\nCrossroads sustains the load; the RTD-buffered VT-IM collapses into")
	fmt.Println("stop-and-go, and AIM burns an order of magnitude more messages and")
	fmt.Println("IM computation on its reject/re-request loop.")
}
