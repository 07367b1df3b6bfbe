// The robustness matrix: every fault scenario crossed with every policy and
// several seeds, each cell an independent seeded simulation. The matrix is
// the fault layer's acceptance harness: under every scripted disruption
// each cell must pass the run verdict (sim.Result.Violations), so no policy
// collides or violates a buffer, and every vehicle of a timed policy either
// completes or ends standing in a failsafe stop (never stranded
// mid-intersection).

package sweep

import (
	"fmt"

	"crossroads/internal/fault"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/sim"
)

// CleanScenario labels the fault-free baseline column every matrix carries;
// faulted throughput is reported relative to it.
const CleanScenario = "clean"

// FaultMatrixConfig parameterizes the robustness matrix.
type FaultMatrixConfig struct {
	// Scenarios are fault specs per fault.ParseSpec (named scenarios or the
	// window DSL); nil means every named scenario. The clean baseline is
	// always prepended.
	Scenarios []string
	// Policies compared; nil means all four.
	Policies []string
	// Seeds drive workload generation and simulation noise per cell; nil
	// means {1, 2, 3}.
	Seeds []int64
	// Rate is the Poisson input flow (car/lane/s); 0 means 0.4 — brisk
	// enough that every scenario window catches vehicles mid-handshake.
	Rate float64
	// NumVehicles is the fleet per cell; 0 means 36, which keeps the whole
	// fleet arriving inside the scenarios' scripted fault period.
	NumVehicles int
	// Workers bounds concurrent cells exactly as in Config.Workers; every
	// cell derives its RNGs from its seed alone, so the result is
	// bit-identical for any worker count.
	Workers int
	// TraceFull gives every cell its own full-retention recorder; the
	// streams land in FaultMatrixResult.Traces in cell order.
	TraceFull bool
	// PolicyParams carries generic "<policy>.<knob>" tuning, shared by
	// every cell; each policy reads only its own namespace.
	PolicyParams map[string]string
}

// FaultMatrixResult is the full matrix. Its runs are in (scenario,
// policy, seed) order, labelled "<scenario>/<policy>/seed=<seed>".
type FaultMatrixResult struct {
	Runs
	// Scenarios always starts with CleanScenario.
	Scenarios []string
	Policies  []string
	Seeds     []int64
}

// Cell returns the outcome of the (scenario, policy, seed) cell.
func (r FaultMatrixResult) Cell(si, pi, wi int) sim.Result {
	return r.Results[(si*len(r.Policies)+pi)*len(r.Seeds)+wi]
}

// CleanThroughput returns the baseline throughput for a (policy, seed)
// column, or 0 when the matrix is empty.
func (r FaultMatrixResult) CleanThroughput(pi, wi int) float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return r.Cell(0, pi, wi).Summary.Throughput
}

// Table renders every cell with its throughput relative to the same
// (policy, seed) clean baseline.
func (r FaultMatrixResult) Table() *metrics.Table {
	headers := append([]string{"scenario", "policy", "seed", "tput", "tput/clean"}, safetyColumns...)
	t := metrics.NewTable(append(headers, "dropped", "dup")...)
	for si, scen := range r.Scenarios {
		for pi, pol := range r.Policies {
			for wi, seed := range r.Seeds {
				c := r.Cell(si, pi, wi)
				rel := 0.0
				if base := r.CleanThroughput(pi, wi); base > 0 {
					rel = c.Summary.Throughput / base
				}
				row := append([]any{scen, pol, seed, c.Summary.Throughput, rel}, safetyCells(c)...)
				t.AddRow(append(row, c.Network.Dropped, c.Network.Duplicated)...)
			}
		}
	}
	return t
}

// SummaryTable averages each (scenario, policy) over seeds — the compact
// view EXPERIMENTS.md reports.
func (r FaultMatrixResult) SummaryTable() *metrics.Table {
	t := metrics.NewTable("scenario", "policy", "tput/clean",
		"coll", "bufviol", "incomplete", "failsafe", "stranded", "unspawned")
	for si, scen := range r.Scenarios {
		for pi, pol := range r.Policies {
			var rel float64
			var coll, buf, inc, fs, str, uns int
			n := 0
			for wi := range r.Seeds {
				c := r.Cell(si, pi, wi)
				if base := r.CleanThroughput(pi, wi); base > 0 {
					rel += c.Summary.Throughput / base
					n++
				}
				coll += c.Summary.Collisions
				buf += c.Summary.BufferViolations
				inc += c.Incomplete
				fs += c.FailsafeStopped
				str += c.Stranded
				uns += c.Unspawned
			}
			if n > 0 {
				rel /= float64(n)
			}
			t.AddRow(scen, pol, rel, coll, buf, inc, fs, str, uns)
		}
	}
	return t
}

// RunFaultMatrix executes the robustness matrix.
func RunFaultMatrix(cfg FaultMatrixConfig) (FaultMatrixResult, error) {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = fault.ScenarioNames()
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"vt-im", "aim", "crossroads", "batch"}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2, 3}
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 0.4
	}
	if cfg.NumVehicles <= 0 {
		cfg.NumVehicles = 36
	}

	// Resolve every spec up front so a typo fails the whole matrix, not one
	// cell mid-run; the clean baseline (nil schedule) is always column 0.
	scenarios := []string{CleanScenario}
	schedules := []*fault.Schedule{nil}
	for _, name := range cfg.Scenarios {
		if name == CleanScenario {
			continue
		}
		s, err := fault.ParseSpec(name)
		if err != nil {
			return FaultMatrixResult{}, fmt.Errorf("sweep: scenario %q: %w", name, err)
		}
		scenarios = append(scenarios, name)
		schedules = append(schedules, s)
	}

	// The matrix runs the noiseless scale model at the simulator's default
	// geometry.
	params := kinematics.ScaleModelParams()
	var cells []cell
	for si, scen := range scenarios {
		for _, pol := range cfg.Policies {
			for _, seed := range cfg.Seeds {
				cells = append(cells, cell{
					label:    fmt.Sprintf("%s/%s/seed=%d", scen, pol, seed),
					policy:   pol,
					seed:     seed,
					workload: poisson(cfg.Rate, cfg.NumVehicles, params),
					opts:     []sim.Option{sim.WithFaults(schedules[si])},
				})
			}
		}
	}
	runs, err := runCells(cells, shared{workers: cfg.Workers, policyParams: cfg.PolicyParams, traceFull: cfg.TraceFull})
	if err != nil {
		return FaultMatrixResult{}, err
	}
	return FaultMatrixResult{Runs: runs, Scenarios: scenarios, Policies: cfg.Policies, Seeds: cfg.Seeds}, nil
}
