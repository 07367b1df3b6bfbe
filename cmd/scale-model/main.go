// Command scale-model reproduces the paper's §7.1 physical experiment
// (Fig. 7.1): the ten scale-model traffic scenarios run under the buffered
// VT-IM and under Crossroads, comparing average wait (line-to-exit) times.
//
// Usage:
//
//	scale-model [-reps N] [-seed S] [-workers 1] [-noiseless] [-policy vt-im,crossroads,aim] [-csv] [-trace out.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"crossroads/internal/cliflags"
	"crossroads/internal/sweep"
)

func main() {
	reps := flag.Int("reps", 10, "repetitions per scenario")
	common := cliflags.AddCommon(flag.CommandLine, 1)
	noiseless := flag.Bool("noiseless", false, "disable plant actuation/sensing noise")
	policyFlags := cliflags.AddPolicy(flag.CommandLine)
	flag.Parse()
	if policyFlags.List() {
		fmt.Println(policyFlags.ListText())
		return
	}
	if err := common.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "scale-model:", err)
		os.Exit(1)
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

	cfg := sweep.ScaleConfig{
		Repetitions:  *reps,
		Seed:         common.Seed,
		Noisy:        !*noiseless,
		Workers:      common.Workers,
		Policies:     policies,
		PolicyParams: policyParams,
	}
	if common.TracePath != "" {
		cfg.TraceFull = true
		cfg.TraceDES = common.TraceDES
	}
	res, err := sweep.RunScale(cfg)
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
	// The headline compares the VT-IM and Crossroads columns, wherever
	// -policy put them.
	if vi, ci := slices.Index(res.Policies, "vt-im"), slices.Index(res.Policies, "crossroads"); vi >= 0 && ci >= 0 {
		vt, cr := res.AverageWait(vi), res.AverageWait(ci)
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
