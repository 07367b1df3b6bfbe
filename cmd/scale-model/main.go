// Command scale-model reproduces the paper's §7.1 physical experiment
// (Fig. 7.1): the ten scale-model traffic scenarios run under the buffered
// VT-IM and under Crossroads, comparing average wait (line-to-exit) times.
//
// Usage:
//
//	scale-model [-reps N] [-seed S] [-workers 1] [-noiseless] [-aim] [-csv] [-trace out.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"

	"crossroads/internal/cliflags"
	"crossroads/internal/scale"
	"crossroads/internal/vehicle"
)

func main() {
	reps := flag.Int("reps", 10, "repetitions per scenario")
	common := cliflags.AddCommon(flag.CommandLine, 1)
	noiseless := flag.Bool("noiseless", false, "disable plant actuation/sensing noise")
	withAIM := flag.Bool("aim", false, "also run the AIM baseline")
	policyFlags := cliflags.AddPolicy(flag.CommandLine)
	flag.Parse()
	if policyFlags.List() {
		fmt.Println(policyFlags.ListText())
		return
	}
	policies, err := policyFlags.Policies(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale-model:", err)
		os.Exit(1)
	}
	policyParams, err := policyFlags.Params()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale-model:", err)
		os.Exit(1)
	}
	if len(policies) > 0 && *withAIM {
		fmt.Fprintln(os.Stderr, "scale-model: -aim and -policy are mutually exclusive (name aim in -policy instead)")
		os.Exit(1)
	}

	cfg := scale.Config{
		Repetitions: *reps,
		Seed:        common.Seed,
		Noisy:       !*noiseless,
		Workers:     common.Workers,
	}
	if *withAIM {
		cfg.Policies = []vehicle.Policy{vehicle.PolicyVTIM, vehicle.PolicyCrossroads, vehicle.PolicyAIM}
	}
	if len(policies) > 0 {
		cfg.Policies = policies
	}
	cfg.PolicyParams = policyParams
	if common.TracePath != "" {
		cfg.TraceFull = true
		cfg.TraceDES = common.TraceDES
	}
	res, err := scale.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scale-model:", err)
		os.Exit(1)
	}
	fmt.Println("Fig. 7.1 — average wait time per scenario (1/10-scale model)")
	fmt.Printf("repetitions=%d seed=%d noise=%v\n\n", cfg.Repetitions, cfg.Seed, cfg.Noisy)
	if common.CSV {
		fmt.Print(res.Table().CSV())
	} else {
		fmt.Print(res.Table().String())
	}
	// The headline ratio reads positions 0/1 as VT-IM/Crossroads, which a
	// custom -policy list need not preserve.
	if len(policies) == 0 && len(res.Policies) >= 2 {
		vt, cr := res.AverageWait(0), res.AverageWait(1)
		fmt.Printf("\nCrossroads reduces average wait by %.0f%% vs VT-IM (paper: ~24%%)\n",
			(1-cr/vt)*100)
	}
	if common.TracePath != "" {
		if err := res.WriteTrace(common.TracePath); err != nil {
			fmt.Fprintln(os.Stderr, "scale-model: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nTrace written to %s\n%s", common.TracePath, res.TraceSummary())
	}
}
