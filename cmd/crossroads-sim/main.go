// Command crossroads-sim reproduces the paper's §7.2 scalability study
// (Fig. 7.2): throughput versus input flow rate for AIM, plain VT-IM, and
// Crossroads, plus the computation/network overhead comparison and the
// headline throughput ratios.
//
// With -corridor or -grid it instead runs the multi-intersection
// experiment: one routed Poisson workload over the topology, each
// intersection managed by its own IM shard, reporting end-to-end journey
// statistics plus a per-node breakdown.
//
// Usage:
//
//	crossroads-sim [-n 160] [-seed 42] [-workers 1] [-scale] [-noise] [-overhead] [-summary] [-csv] [-trace out.jsonl]
//	crossroads-sim -corridor 3 [-rate 0.3] [...]
//	crossroads-sim -grid 2x2 [-rate 0.3] [...]
package main

import (
	"flag"
	"fmt"
	"os"

	"crossroads/internal/cliflags"
	"crossroads/internal/sweep"
	"crossroads/internal/topology"
	"crossroads/internal/vehicle"
)

func main() {
	n := flag.Int("n", 160, "vehicles routed per run (paper: 160)")
	common := cliflags.AddCommon(flag.CommandLine, 42)
	scaleModel := flag.Bool("scale", false, "use the 1/10-scale geometry instead of full-scale")
	noisy := flag.Bool("noise", false, "enable plant actuation/sensing noise")
	withBatch := flag.Bool("batch", false, "include the Tachet-style batching extension")
	overhead := flag.Bool("overhead", false, "also print the computation/network overhead table")
	summary := flag.Bool("summary", false, "also print the headline throughput ratios")
	topoFlags := cliflags.AddTopology(flag.CommandLine)
	coordFlags := cliflags.AddCoord(flag.CommandLine)
	policyFlags := cliflags.AddPolicy(flag.CommandLine)
	faults := cliflags.AddFaults(flag.CommandLine)
	flag.Parse()
	if policyFlags.List() {
		fmt.Println(policyFlags.ListText())
		return
	}
	policies, err := policyFlags.Policies(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}
	policyParams, err := policyFlags.Params()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}
	if len(policies) > 0 && *withBatch {
		fmt.Fprintln(os.Stderr, "crossroads-sim: -batch and -policy are mutually exclusive (name batch in -policy instead)")
		os.Exit(1)
	}
	coordOn, coordPeriod, err := coordFlags.Parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}
	seed, workers := common.Seed, common.Workers
	csv, tracePath, traceDES := common.CSV, common.TracePath, common.TraceDES
	if coordOn && topoFlags.Corridor == 0 && topoFlags.Grid == "" {
		fmt.Fprintln(os.Stderr, "crossroads-sim: -coord on needs a -corridor/-grid topology (a single IM has no peers)")
		os.Exit(1)
	}
	if coordOn && *faults != "" {
		fmt.Fprintln(os.Stderr, "crossroads-sim: -coord is mutually exclusive with -faults (the fault matrix is single-intersection)")
		os.Exit(1)
	}

	if *faults != "" {
		if topoFlags.Corridor != 0 || topoFlags.Grid != "" {
			fmt.Fprintln(os.Stderr, "crossroads-sim: -faults is mutually exclusive with -corridor/-grid")
			os.Exit(1)
		}
		// The matrix has its own fleet/rate defaults tuned so every
		// scenario window catches vehicles mid-handshake; -n and -rate
		// override them only when given explicitly.
		nOverride, rateOverride := 0, 0.0
		if cliflags.WasSet(flag.CommandLine, "n") {
			nOverride = *n
		}
		if cliflags.WasSet(flag.CommandLine, "rate") {
			rateOverride = topoFlags.Rate
		}
		runFaultMatrix(*faults, seed, workers, csv, tracePath, nOverride, rateOverride, policies, policyParams)
		return
	}

	topo, err := topoFlags.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}
	if topo != nil {
		runTopology(topo, topoFlags.Rate, *n, seed, workers,
			*scaleModel, *noisy, *withBatch, csv, tracePath, traceDES, coordOn, coordPeriod,
			policies, policyParams)
		return
	}

	cfg := sweep.DefaultConfig()
	cfg.NumVehicles = *n
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ScaleModel = *scaleModel
	cfg.Noisy = *noisy
	if *withBatch {
		cfg.Policies = []vehicle.Policy{
			vehicle.PolicyVTIM, vehicle.PolicyAIM, vehicle.PolicyBatch, vehicle.PolicyCrossroads,
		}
	}
	if len(policies) > 0 {
		cfg.Policies = policies
	}
	cfg.PolicyParams = policyParams
	if tracePath != "" {
		cfg.TraceFull = true
		cfg.TraceDES = traceDES
	}

	res, err := sweep.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}

	fmt.Println("Fig. 7.2 — throughput (vehicles / total wait) vs input flow rate")
	fmt.Printf("fleet=%d seed=%d geometry=%s noise=%v\n\n", *n, seed, geometry(*scaleModel), *noisy)
	emit := emitter(csv)
	emit(res.ThroughputTable())

	if *overhead {
		fmt.Println("\nOverhead (paper: AIM up to ~16x compute, ~20x traffic vs VT/Crossroads)")
		emit(res.OverheadTable())
	}
	if *summary {
		fmt.Println("\nHeadline ratios (Crossroads throughput / baseline throughput):")
		if w, a, err := res.Headline("vt-im"); err == nil {
			fmt.Printf("  vs VT-IM: worst %.2fx, average %.2fx (paper: 1.62x / 1.36x)\n", w, a)
		}
		if w, a, err := res.Headline("aim"); err == nil {
			fmt.Printf("  vs AIM:   worst %.2fx, average %.2fx (paper: 1.28x / 1.15x)\n", w, a)
		}
	}
	if tracePath != "" {
		if err := res.WriteTrace(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "crossroads-sim: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nTrace written to %s\n%s", tracePath, res.TraceSummary())
	}
}

// runFaultMatrix executes the robustness matrix: fault scenarios crossed
// with every policy and three consecutive seeds. Exits non-zero when any
// coordinated policy (crossroads, batch) collides, violates a buffer, or
// strands a vehicle — the matrix doubles as the resilience acceptance gate.
func runFaultMatrix(spec string, seed int64, workers int, csv bool, tracePath string, n int, rate float64,
	policies []vehicle.Policy, policyParams map[string]string) {
	cfg := sweep.DefaultFaultMatrixConfig()
	if spec != "matrix" {
		cfg.Scenarios = []string{spec}
	}
	cfg.Seeds = []int64{seed, seed + 1, seed + 2}
	cfg.Workers = workers
	cfg.NumVehicles = n
	cfg.Rate = rate
	cfg.Policies = policies
	cfg.PolicyParams = policyParams
	cfg.TraceFull = tracePath != ""

	res, err := sweep.RunFaultMatrix(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}

	fmt.Println("Robustness matrix — faulted throughput relative to the clean baseline")
	fmt.Printf("scenarios=%v seeds=%v\n\n", res.Scenarios, res.Seeds)
	emit := emitter(csv)
	emit(res.Table())
	fmt.Println("\nPer-scenario summary (seed-averaged):")
	emit(res.SummaryTable())

	if tracePath != "" {
		if err := res.WriteTrace(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "crossroads-sim: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nTrace written to %s\n", tracePath)
	}
	if v := res.SafetyViolations(); v > 0 {
		fmt.Fprintf(os.Stderr, "crossroads-sim: FAIL: %d safety violation(s) in timed policies\n", v)
		os.Exit(1)
	}
	fmt.Println("\nPASS: zero collisions, buffer violations, and stranded vehicles for timed policies")
}

func runTopology(topo *topology.Topology, rate float64, n int, seed int64, workers int,
	scaleModel, noisy, withBatch, csv bool, tracePath string, traceDES bool,
	coordOn bool, coordPeriod float64, policies []vehicle.Policy, policyParams map[string]string) {
	cfg := sweep.TopoConfig{
		Topology:     topo,
		Rate:         rate,
		NumVehicles:  n,
		Seed:         seed,
		Workers:      workers,
		ScaleModel:   scaleModel,
		Noisy:        noisy,
		Coord:        coordOn,
		CoordPeriod:  coordPeriod,
		PolicyParams: policyParams,
	}
	if withBatch {
		cfg.Policies = []vehicle.Policy{
			vehicle.PolicyVTIM, vehicle.PolicyAIM, vehicle.PolicyBatch, vehicle.PolicyCrossroads,
		}
	}
	if len(policies) > 0 {
		cfg.Policies = policies
	}
	if tracePath != "" {
		cfg.TraceFull = true
		cfg.TraceDES = traceDES
	}
	res, err := sweep.RunTopology(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("Multi-IM topology %s — end-to-end journeys\n", topo)
	coordLabel := "off"
	if coordOn {
		coordLabel = "on"
	}
	fmt.Printf("fleet=%d rate=%g seed=%d geometry=%s noise=%v seglen=%gm coord=%s\n\n",
		n, rate, seed, geometry(scaleModel), noisy, topo.SegmentLen(), coordLabel)
	emit := emitter(csv)
	emit(res.JourneyTable())
	fmt.Println("\nPer-intersection breakdown (wait vs unimpeded arrival at each node)")
	emit(res.PerNodeTable())
	if tracePath != "" {
		if err := res.WriteTrace(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "crossroads-sim: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nTrace written to %s\n", tracePath)
	}
	// Topology runs double as a safety gate, as the fault matrix does.
	if v := res.SafetyViolations(); v > 0 {
		fmt.Fprintf(os.Stderr, "crossroads-sim: FAIL: %d safety violation(s) in timed policies\n", v)
		os.Exit(1)
	}
	fmt.Println("\nPASS: zero collisions, buffer violations, and incomplete journeys for timed policies")
}

func emitter(csv bool) func(t interface {
	String() string
	CSV() string
}) {
	return func(t interface {
		String() string
		CSV() string
	}) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
	}
}

func geometry(scaleModel bool) string {
	if scaleModel {
		return "1/10-scale"
	}
	return "full-scale"
}
