// Package sweep runs the repo's experiments as grids of independent,
// seeded simulations over one cell runner, keeping each cell's sim.Result
// as its outcome:
//
//   - the §7.2 rate sweep (Fig. 7.2 and the overhead comparison): Poisson
//     input flows from 0.05 to 1.25 vehicles per lane-second routing a fixed
//     fleet through a single-lane four-way under the chosen IM policies
//     (any registered one; VT-IM, AIM, and Crossroads by default),
//     reporting throughput (vehicles per total wait time, the paper's
//     definition), computation, and network load;
//   - the §7.1 scale-model scenarios (Fig. 7.1);
//   - the fault-injection robustness matrix;
//   - multi-intersection corridor and grid runs.
//
// Every cell derives its RNGs from its own seed and lands in its own slot,
// so each experiment's result is bit-identical for any worker count.
package sweep

import (
	"fmt"
	"slices"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
)

// PaperRates returns the paper's x-axis: 0.05 to 1.25 car/lane/second.
func PaperRates() []float64 {
	return []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.80, 1.00, 1.25}
}

// Config parameterizes the sweep.
type Config struct {
	// Rates are the input flows (car/lane/s).
	Rates []float64
	// NumVehicles is the routed fleet per run (paper: 160).
	NumVehicles int
	// Policies compared; nil means all three.
	Policies []string
	// Seed drives workload generation and simulation noise.
	Seed int64
	// ScaleModel selects the 1/10-scale geometry instead of the
	// full-size default.
	ScaleModel bool
	// Noisy enables plant noise.
	Noisy bool
	// Workers bounds the number of (rate, policy) cells simulated
	// concurrently: 1 runs serially, <= 0 uses runtime.NumCPU(). Every
	// cell derives its workload and simulation RNGs from Seed alone, so
	// the Result is bit-identical for any worker count.
	Workers int
	// TraceFull gives every cell its own full-retention event recorder
	// (a Recorder is single-goroutine, so cells cannot share one); the
	// per-cell streams land in Result.Traces in cell order, which keeps
	// the merged trace identical for any worker count.
	TraceFull bool
	// TraceDES additionally records the kernel event firehose per cell.
	TraceDES bool
	// PolicyParams carries generic "<policy>.<knob>" tuning, shared by
	// every cell; each policy reads only its own namespace.
	PolicyParams map[string]string
}

// DefaultConfig returns the paper's setup at full-scale geometry.
func DefaultConfig() Config {
	return Config{
		Rates:       PaperRates(),
		NumVehicles: 160,
		Seed:        42,
	}
}

// Result is the full sweep. Its runs are in (rate, policy) order,
// labelled "rate=<rate>/<policy>".
type Result struct {
	Runs
	Rates    []float64
	Policies []string
}

// Cell returns the outcome of the (rate, policy) cell.
func (r Result) Cell(ri, pi int) sim.Result {
	return r.Results[ri*len(r.Policies)+pi]
}

// Run executes the sweep. Every (rate, policy) cell regenerates the
// workload from the same seed, so the policies at one rate face identical
// arrivals.
func Run(cfg Config) (Result, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = PaperRates()
	}
	if cfg.NumVehicles <= 0 {
		cfg.NumVehicles = 160
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []string{"vt-im", "aim", "crossroads"}
	}
	params, geo := geometry(cfg.ScaleModel)
	var cells []cell
	for _, rate := range cfg.Rates {
		for _, pol := range policies {
			cells = append(cells, cell{
				label:    fmt.Sprintf("rate=%g/%s", rate, pol),
				policy:   pol,
				seed:     cfg.Seed,
				workload: poisson(rate, cfg.NumVehicles, params),
				opts:     geo,
			})
		}
	}
	runs, err := runCells(cells, shared{cfg.Workers, cfg.PolicyParams, cfg.Noisy, cfg.TraceFull, cfg.TraceDES})
	if err != nil {
		return Result{}, err
	}
	return Result{Runs: runs, Rates: cfg.Rates, Policies: policies}, nil
}

// ThroughputTable renders the Fig. 7.2 series.
func (r Result) ThroughputTable() *metrics.Table {
	headers := []string{"rate (car/s/lane)"}
	for _, p := range r.Policies {
		headers = append(headers, p+" tput")
	}
	t := metrics.NewTable(headers...)
	for ri, rate := range r.Rates {
		cells := []any{rate}
		for pi := range r.Policies {
			cells = append(cells, r.Cell(ri, pi).Summary.Throughput)
		}
		t.AddRow(cells...)
	}
	return t
}

// OverheadTable renders the computation/network comparison (paper: AIM up
// to ~16x compute and ~20x traffic versus the velocity-transaction IMs).
func (r Result) OverheadTable() *metrics.Table {
	t := metrics.NewTable("rate", "policy", "messages", "bytes", "IM calls", "IM busy (s)", "retries/veh")
	for ri, rate := range r.Rates {
		for pi, pol := range r.Policies {
			s := r.Cell(ri, pi).Summary
			t.AddRow(rate, pol, s.Messages, s.Bytes, s.SchedulerInvocations, s.SchedulerSimDelay, s.MeanRetries)
		}
	}
	return t
}

// Headline computes the paper's summary ratios: Crossroads versus another
// policy's throughput, worst-case (max over rates) and average.
func (r Result) Headline(other string) (worst, avg float64, err error) {
	ci := slices.Index(r.Policies, "crossroads")
	oi := slices.Index(r.Policies, other)
	if ci < 0 || oi < 0 {
		return 0, 0, fmt.Errorf("sweep: policies missing for headline (%q)", other)
	}
	var sum float64
	n := 0
	for ri := range r.Rates {
		o := r.Cell(ri, oi).Summary.Throughput
		if o <= 0 {
			continue
		}
		ratio := r.Cell(ri, ci).Summary.Throughput / o
		if ratio > worst {
			worst = ratio
		}
		sum += ratio
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("sweep: no comparable cells")
	}
	return worst, sum / float64(n), nil
}
