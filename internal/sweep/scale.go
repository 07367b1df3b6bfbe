package sweep

import (
	"fmt"
	"math/rand"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
	"crossroads/internal/traffic"
)

// ScaleConfig parameterizes the paper's 1/10-scale physical experiment
// (§7.1, Fig. 7.1): ten traffic scenarios — scenario 1 the designed worst
// case of simultaneous arrivals, scenario 10 the designed best case of
// sparse traffic — each run repeatedly under both the buffered VT-IM and
// Crossroads, comparing average wait times. The paper measured Crossroads
// 1.24x better in the worst case down to 1.08x in the best, a ~24% average
// wait-time reduction.
type ScaleConfig struct {
	// Repetitions per scenario (paper: 10).
	Repetitions int
	// Seed drives scenario randomization and all simulation noise.
	Seed int64
	// Noisy enables the calibrated testbed plant disturbance.
	Noisy bool
	// Policies to compare; nil means the paper's pair (VT-IM, Crossroads).
	Policies []string
	// Workers bounds how many (scenario, policy, repetition) cells run
	// concurrently: 1 is serial, <= 0 uses runtime.NumCPU(). Each
	// repetition is seeded from Seed alone, so the result is
	// bit-identical for any worker count.
	Workers int
	// TraceFull gives every repetition its own full-retention event
	// recorder; the trace writes them in order under their
	// (scenario, policy) label.
	TraceFull bool
	// TraceDES additionally records the kernel event firehose per cell.
	TraceDES bool
	// PolicyParams carries generic "<policy>.<knob>" tuning, shared by
	// every cell; each policy reads only its own namespace.
	PolicyParams map[string]string
}

// ScaleResult is the full experiment outcome. Its runs are in (scenario,
// policy, repetition) order, labelled "scenario=<n>/<policy>".
type ScaleResult struct {
	Runs
	Policies    []string
	Repetitions int
}

// Cell returns one repetition's outcome of a scenario (1-based) under a
// policy.
func (r ScaleResult) Cell(scen, pi, rep int) sim.Result {
	return r.Results[((scen-1)*len(r.Policies)+pi)*r.Repetitions+rep]
}

// MeanWait is the paper's Fig. 7.1 metric for one scenario under one
// policy: the line-to-exit travel time averaged over vehicles and
// repetitions (the best-case scenario bottoms out at the free-flow travel
// time, exactly as in the paper). Repetitions are summed in order.
func (r ScaleResult) MeanWait(scen, pi int) float64 {
	var sum float64
	for rep := 0; rep < r.Repetitions; rep++ {
		sum += r.Cell(scen, pi, rep).Summary.MeanTravel
	}
	return sum / float64(r.Repetitions)
}

// AverageWait returns a policy's wait time averaged over all scenarios.
func (r ScaleResult) AverageWait(pi int) float64 {
	var total float64
	for scen := 1; scen <= traffic.NumScaleScenarios; scen++ {
		total += r.MeanWait(scen, pi)
	}
	return total / traffic.NumScaleScenarios
}

// Speedup returns how much lower policy b's average wait is than policy
// a's, as the ratio wait(a)/wait(b), per scenario.
func (r ScaleResult) Speedup(a, b int) []float64 {
	out := make([]float64, traffic.NumScaleScenarios)
	for i := range out {
		out[i] = r.MeanWait(i+1, a) / r.MeanWait(i+1, b)
	}
	return out
}

// RunScale executes the scale-model experiment. Every repetition of a
// scenario is its own cell, seeded from the scenario and repetition, so
// every policy faces identical arrivals.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []string{"vt-im", "crossroads"}
	}
	var cells []cell
	for scen := 1; scen <= traffic.NumScaleScenarios; scen++ {
		scenario := func(rng *rand.Rand) ([]traffic.Arrival, error) {
			return traffic.ScaleScenario(scen, rng)
		}
		for _, pol := range policies {
			for rep := 0; rep < cfg.Repetitions; rep++ {
				cells = append(cells, cell{
					label:    fmt.Sprintf("scenario=%d/%s", scen, pol),
					policy:   pol,
					seed:     cfg.Seed + int64(scen*1000+rep),
					workload: scenario,
				})
			}
		}
	}
	runs, err := runCells(cells, shared{cfg.Workers, cfg.PolicyParams, cfg.Noisy, cfg.TraceFull, cfg.TraceDES})
	if err != nil {
		return ScaleResult{}, err
	}
	return ScaleResult{Runs: runs, Policies: policies, Repetitions: cfg.Repetitions}, nil
}

// Table renders the Fig. 7.1 comparison.
func (r ScaleResult) Table() *metrics.Table {
	headers := []string{"scenario"}
	for _, p := range r.Policies {
		headers = append(headers, p+" wait (s)")
	}
	pair := len(r.Policies) == 2
	if pair {
		headers = append(headers, "ratio")
	}
	t := metrics.NewTable(headers...)
	for scen := 1; scen <= traffic.NumScaleScenarios; scen++ {
		cells := []any{scen}
		for pi := range r.Policies {
			cells = append(cells, r.MeanWait(scen, pi))
		}
		if pair {
			cells = append(cells, r.MeanWait(scen, 0)/r.MeanWait(scen, 1))
		}
		t.AddRow(cells...)
	}
	avg := []any{"AVG"}
	for pi := range r.Policies {
		avg = append(avg, r.AverageWait(pi))
	}
	if pair {
		avg = append(avg, r.AverageWait(0)/r.AverageWait(1))
	}
	t.AddRow(avg...)
	return t
}
