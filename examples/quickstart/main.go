// Quickstart: run one small traffic scenario through the Crossroads
// intersection manager and print what every vehicle experienced.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
	"crossroads/internal/traffic"
)

func main() {
	// A scale-model scenario: five 1/10-scale cars hitting the paper's
	// worst case — simultaneous arrivals on all four approaches.
	arrivals, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}

	// Run it under Crossroads. The zero-valued fields default to the
	// paper's testbed: 1.2 m box, 3 m from the transmission line, 150 ms
	// worst-case RTD, 78 mm sensing buffer.
	cfg, err := sim.NewConfig(
		sim.WithPolicy("crossroads"),
		sim.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(cfg, arrivals)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy=%s  crossed=%d/%d  collisions=%d\n\n",
		res.Policy, res.Summary.Completed, len(arrivals), res.Summary.Collisions)

	t := metrics.NewTable("vehicle", "movement", "line (s)", "exit (s)", "wait (s)", "retries")
	for _, v := range res.Vehicles {
		t.AddRow(v.ID, v.Movement, v.SpawnTime, v.ExitTime, v.WaitTime(), v.Retries)
	}
	fmt.Print(t.String())

	fmt.Printf("\nmean wait %.2fs (p95 %.2fs, max %.2fs)\n",
		res.Summary.MeanWait, res.Summary.P95Wait, res.Summary.MaxWait)
	fmt.Printf("network: %d messages, %d bytes; IM computed for %.0f ms of simulated time\n",
		res.Summary.Messages, res.Summary.Bytes, res.Summary.SchedulerSimDelay*1000)
}
