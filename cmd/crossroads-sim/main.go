// Command crossroads-sim reproduces the paper's §7.2 scalability study
// (Fig. 7.2): throughput versus input flow rate for AIM, plain VT-IM, and
// Crossroads, plus the computation/network overhead comparison and the
// headline throughput ratios.
//
// With -corridor or -grid it instead runs the multi-intersection
// experiment: one routed Poisson workload over the topology, each
// intersection managed by its own IM shard, reporting end-to-end journey
// statistics plus a per-node breakdown. With -faults it runs the
// fault-injection robustness matrix.
//
// Each mode rejects the flags it does not read (see modes).
//
// Usage:
//
//	crossroads-sim [-n 160] [-seed 42] [-workers 1] [-scale] [-noise] [-overhead] [-summary] [-csv] [-trace out.jsonl [-trace-des]]
//	crossroads-sim -corridor 3 [-rate 0.3] [-seglen 0] [-coord on] [...]
//	crossroads-sim -grid 2x2 [-rate 0.3] [-seglen 0] [-coord on] [...]
//	crossroads-sim -faults matrix|<scenario> [-n 36] [-rate 0.4] [-seed 1] [-trace out.jsonl] [...]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"crossroads/internal/cliflags"
	"crossroads/internal/metrics"
	"crossroads/internal/sweep"
)

// Mode names, as error messages print them.
const (
	sweepMode = "the rate sweep"
	topoMode  = "-corridor/-grid runs"
	faultMode = "-faults runs"
)

// modes lists the flags each mode reads. Any other flag on the command
// line fails the run, so a mode never silently runs something other than
// what was asked.
var modes = map[string][]string{
	sweepMode: {"n", "seed", "workers", "csv", "trace", "trace-des", "policy", "policy-opt",
		"scale", "noise", "overhead", "summary"},
	topoMode: {"n", "seed", "workers", "csv", "trace", "trace-des", "policy", "policy-opt",
		"scale", "noise", "corridor", "grid", "rate", "seglen", "coord"},
	faultMode: {"n", "seed", "workers", "csv", "trace", "policy", "policy-opt",
		"faults", "rate"},
}

// flags is crossroads-sim's command line.
type flags struct {
	n          *int
	common     *cliflags.Common
	scaleModel *bool
	noisy      *bool
	overhead   *bool
	summary    *bool
	topo       *cliflags.Topology
	coord      *cliflags.Coord
	policy     *cliflags.Policy
	faults     *string
}

func addFlags(fs *flag.FlagSet) *flags {
	return &flags{
		n:          fs.Int("n", 160, "vehicles routed per run (paper: 160)"),
		common:     cliflags.AddCommon(fs, 42),
		scaleModel: fs.Bool("scale", false, "use the 1/10-scale geometry instead of full-scale"),
		noisy:      fs.Bool("noise", false, "enable plant actuation/sensing noise"),
		overhead:   fs.Bool("overhead", false, "also print the computation/network overhead table"),
		summary:    fs.Bool("summary", false, "also print the headline throughput ratios"),
		topo:       cliflags.AddTopology(fs),
		coord:      cliflags.AddCoord(fs),
		policy:     cliflags.AddPolicy(fs),
		faults:     cliflags.AddFaults(fs),
	}
}

// mode selects the experiment the parsed command line asks for and fails
// on any flag that experiment would ignore.
func (f *flags) mode(fs *flag.FlagSet) (string, error) {
	m := sweepMode
	switch {
	case *f.faults != "":
		m = faultMode
	case f.topo.Corridor != 0 || f.topo.Grid != "":
		m = topoMode
	}
	var err error
	fs.VisitAll(func(fl *flag.Flag) {
		if err != nil || slices.Contains(modes[m], fl.Name) || !cliflags.WasSet(fs, fl.Name) {
			return
		}
		var readers []string
		for _, other := range []string{sweepMode, topoMode, faultMode} {
			if slices.Contains(modes[other], fl.Name) {
				readers = append(readers, other)
			}
		}
		err = fmt.Errorf("-%s is not read by %s; use it with %s", fl.Name, m, strings.Join(readers, " or "))
	})
	if err != nil {
		return "", err
	}
	return m, f.common.Check()
}

func main() {
	f := addFlags(flag.CommandLine)
	flag.Parse()
	if f.policy.List() {
		fmt.Println(f.policy.ListText())
		return
	}
	m, err := f.mode(flag.CommandLine)
	if err != nil {
		fail(err)
	}
	policies, err := f.policy.Policies(nil)
	if err != nil {
		fail(err)
	}
	policyParams, err := f.policy.Params()
	if err != nil {
		fail(err)
	}

	switch m {
	case faultMode:
		runFaultMatrix(f, policies, policyParams)
	case topoMode:
		runTopology(f, policies, policyParams)
	default:
		runSweep(f, policies, policyParams)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "crossroads-sim:", err)
	os.Exit(1)
}

// runSweep executes the Fig. 7.2 flow sweep.
func runSweep(f *flags, policies []string, policyParams map[string]string) {
	c := f.common
	cfg := sweep.DefaultConfig()
	cfg.NumVehicles = *f.n
	cfg.Seed = c.Seed
	cfg.Workers = c.Workers
	cfg.ScaleModel = *f.scaleModel
	cfg.Noisy = *f.noisy
	cfg.Policies = policies
	cfg.PolicyParams = policyParams
	cfg.TraceFull = c.TracePath != ""
	cfg.TraceDES = c.TraceDES

	res, err := sweep.Run(cfg)
	if err != nil {
		fail(err)
	}

	fmt.Println("Fig. 7.2 — throughput (vehicles / total wait) vs input flow rate")
	fmt.Printf("fleet=%d seed=%d geometry=%s noise=%v\n\n", *f.n, c.Seed, geometry(*f.scaleModel), *f.noisy)
	emit(c.CSV, res.ThroughputTable())

	if *f.overhead {
		fmt.Println("\nOverhead (paper: AIM up to ~16x compute, ~20x traffic vs VT/Crossroads)")
		emit(c.CSV, res.OverheadTable())
	}
	if *f.summary {
		fmt.Println("\nHeadline ratios (Crossroads throughput / baseline throughput):")
		if w, a, err := res.Headline("vt-im"); err == nil {
			fmt.Printf("  vs VT-IM: worst %.2fx, average %.2fx (paper: 1.62x / 1.36x)\n", w, a)
		}
		if w, a, err := res.Headline("aim"); err == nil {
			fmt.Printf("  vs AIM:   worst %.2fx, average %.2fx (paper: 1.28x / 1.15x)\n", w, a)
		}
	}
	if c.TracePath != "" {
		writeTrace(res.Runs, c.TracePath)
		fmt.Printf("%s", res.TraceSummary())
	}
}

// runFaultMatrix executes the robustness matrix: fault scenarios crossed
// with every policy and three consecutive seeds. Exits non-zero when any
// timed policy collides, violates a buffer, or strands a vehicle — the
// matrix doubles as the resilience acceptance gate.
func runFaultMatrix(f *flags, policies []string, policyParams map[string]string) {
	c := f.common
	cfg := sweep.FaultMatrixConfig{
		Seeds:        []int64{c.Seed, c.Seed + 1, c.Seed + 2},
		Workers:      c.Workers,
		Policies:     policies,
		PolicyParams: policyParams,
		TraceFull:    c.TracePath != "",
	}
	if *f.faults != "matrix" {
		cfg.Scenarios = []string{*f.faults}
	}
	// The matrix has its own fleet/rate defaults tuned so every scenario
	// window catches vehicles mid-handshake; -n and -rate override them
	// only when given explicitly.
	if cliflags.WasSet(flag.CommandLine, "n") {
		cfg.NumVehicles = *f.n
	}
	if cliflags.WasSet(flag.CommandLine, "rate") {
		cfg.Rate = f.topo.Rate
	}

	res, err := sweep.RunFaultMatrix(cfg)
	if err != nil {
		fail(err)
	}

	fmt.Println("Robustness matrix — faulted throughput relative to the clean baseline")
	fmt.Printf("scenarios=%v seeds=%v\n\n", res.Scenarios, res.Seeds)
	emit(c.CSV, res.Table())
	fmt.Println("\nPer-scenario summary (seed-averaged):")
	emit(c.CSV, res.SummaryTable())

	if c.TracePath != "" {
		writeTrace(res.Runs, c.TracePath)
	}
	gate(res.SafetyViolations(), "zero collisions, buffer violations, and stranded vehicles for timed policies")
}

// runTopology executes a multi-intersection run and, like the fault
// matrix, exits non-zero on any timed-policy safety violation.
func runTopology(f *flags, policies []string, policyParams map[string]string) {
	c := f.common
	topo, err := f.topo.Build()
	if err != nil {
		fail(err)
	}
	coordOn, coordPeriod, err := f.coord.Parse()
	if err != nil {
		fail(err)
	}
	res, err := sweep.RunTopology(sweep.TopoConfig{
		Topology:     topo,
		Rate:         f.topo.Rate,
		NumVehicles:  *f.n,
		Seed:         c.Seed,
		Workers:      c.Workers,
		ScaleModel:   *f.scaleModel,
		Noisy:        *f.noisy,
		TraceFull:    c.TracePath != "",
		TraceDES:     c.TraceDES,
		Coord:        coordOn,
		CoordPeriod:  coordPeriod,
		Policies:     policies,
		PolicyParams: policyParams,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("Multi-IM topology %s — end-to-end journeys\n", topo)
	coordLabel := "off"
	if coordOn {
		coordLabel = "on"
	}
	fmt.Printf("fleet=%d rate=%g seed=%d geometry=%s noise=%v seglen=%gm coord=%s\n\n",
		*f.n, f.topo.Rate, c.Seed, geometry(*f.scaleModel), *f.noisy, topo.SegmentLen(), coordLabel)
	emit(c.CSV, res.JourneyTable())
	fmt.Println("\nPer-intersection breakdown (wait vs unimpeded arrival at each node)")
	emit(c.CSV, res.PerNodeTable())
	if c.TracePath != "" {
		writeTrace(res.Runs, c.TracePath)
	}
	gate(res.SafetyViolations(), "zero collisions, buffer violations, and incomplete journeys for timed policies")
}

func writeTrace(runs sweep.Runs, path string) {
	if err := runs.WriteTrace(path); err != nil {
		fmt.Fprintln(os.Stderr, "crossroads-sim: trace:", err)
		os.Exit(1)
	}
	fmt.Printf("\nTrace written to %s\n", path)
}

// gate makes a run a safety gate: it exits non-zero on any timed-policy
// safety violation and otherwise prints the pass line.
func gate(violations int, pass string) {
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "crossroads-sim: FAIL: %d safety violation(s) in timed policies\n", violations)
		os.Exit(1)
	}
	fmt.Println("\nPASS: " + pass)
}

func emit(csv bool, t *metrics.Table) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
}

func geometry(scaleModel bool) string {
	if scaleModel {
		return "1/10-scale"
	}
	return "full-scale"
}
