package sweep

import (
	"fmt"
	"io"
	"math/rand"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/parallel"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// workload builds a cell's arrivals from an RNG seeded with the cell's
// seed. It is called once per cell, so cells that share a seed face
// identical arrivals without sharing a slice across goroutines.
type workload func(rng *rand.Rand) ([]traffic.Arrival, error)

// cell is one independent simulation of an experiment grid: its run
// label, policy, seed, workload, and the options only its experiment
// sets.
type cell struct {
	label    string
	policy   string
	seed     int64
	workload workload
	opts     []sim.Option
}

// shared holds the settings every cell of one experiment carries.
type shared struct {
	workers      int
	policyParams map[string]string
	noisy        bool
	traceFull    bool
	traceDES     bool
}

// Runs is the outcome of one experiment grid, in cell order: each cell's
// run label, its sim.Result, and, when tracing, its event recorder.
// Every cell derives its RNGs from its own seed and lands in its own
// slot, so Runs is bit-identical for any worker count.
type Runs struct {
	Labels  []string
	Results []sim.Result
	// Traces holds each cell's full-retention recorder when the
	// experiment's TraceFull is set (nil otherwise).
	Traces []*trace.Recorder
}

// Violations sums the cells' verdicts (sim.Result.Violations); zero means
// every cell kept its contract.
func (r Runs) Violations() int {
	n := 0
	for _, c := range r.Results {
		n += c.Violations
	}
	return n
}

// Gate is every run command's verdict. With a violation in any cell it
// writes each failing cell's label and safety counts to stderr, then the
// total, and returns false; the command then exits non-zero. Otherwise it
// writes one PASS line to stdout and returns true.
func (r Runs) Gate(stdout, stderr io.Writer) bool {
	failing := 0
	for i, c := range r.Results {
		if c.Violations == 0 {
			continue
		}
		failing++
		fmt.Fprintf(stderr, "FAIL %s:", r.Labels[i])
		for k, v := range safetyCells(c) {
			fmt.Fprintf(stderr, " %s=%v", safetyColumns[k], v)
		}
		fmt.Fprintln(stderr)
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "FAIL: %d violation(s) in %d of %d cells\n", r.Violations(), failing, len(r.Results))
		return false
	}
	fmt.Fprintf(stdout, "\nPASS: 0 violations in %d cells\n", len(r.Results))
	return true
}

// safetyColumns head the safety counts of every table that shows them, in
// the order safetyCells gives one cell's values.
var safetyColumns = []string{"coll", "bufviol", "failsafe", "stranded", "unspawned", "violations"}

func safetyCells(c sim.Result) []any {
	return []any{c.Summary.Collisions, c.Summary.BufferViolations, c.FailsafeStopped, c.Stranded,
		c.Unspawned, c.Violations}
}

// runCells simulates every cell on up to sh.workers goroutines.
func runCells(cells []cell, sh shared) (Runs, error) {
	r := Runs{Labels: make([]string, len(cells)), Results: make([]sim.Result, len(cells))}
	for i, c := range cells {
		r.Labels[i] = c.label
	}
	if sh.traceFull {
		r.Traces = make([]*trace.Recorder, len(cells))
	}
	err := parallel.ForEach(len(cells), sh.workers, func(i int) error {
		var rec *trace.Recorder
		if sh.traceFull {
			rec = trace.NewFull()
			r.Traces[i] = rec
		}
		out, err := simulate(cells[i], sh, rec)
		if err != nil {
			return fmt.Errorf("sweep: %s seed=%d: %w", cells[i].label, cells[i].seed, err)
		}
		r.Results[i] = out
		return nil
	})
	if err != nil {
		return Runs{}, err
	}
	return r, nil
}

// simulate runs one cell with the experiment's shared options added; rec
// is the cell's recorder, nil when not tracing.
func simulate(c cell, sh shared, rec *trace.Recorder) (sim.Result, error) {
	arrivals, err := c.workload(rand.New(rand.NewSource(c.seed)))
	if err != nil {
		return sim.Result{}, err
	}
	opts := append([]sim.Option{sim.WithPolicy(c.policy), sim.WithSeed(c.seed)}, c.opts...)
	if len(sh.policyParams) > 0 {
		opts = append(opts, sim.WithPolicyParams(sh.policyParams))
	}
	if sh.noisy {
		opts = append(opts, sim.WithNoise(plant.TestbedNoise()))
	}
	if rec != nil {
		opts = append(opts, sim.WithTrace(rec))
		if sh.traceDES {
			opts = append(opts, sim.WithDESTrace())
		}
	}
	cfg, err := sim.NewConfig(opts...)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(cfg, arrivals)
}

// TraceSummary merges every cell's per-kind counts, latency histogram, and
// queue high-water mark into one experiment-wide summary.
func (r Runs) TraceSummary() trace.Summary {
	var s trace.Summary
	for _, rec := range r.Traces {
		s.Merge(rec.Summary())
	}
	return s
}

// WriteTrace streams every cell's events as JSONL in cell order, each
// event's run field set to its cell's label, so one file holds the whole
// experiment unambiguously.
func (r Runs) WriteTrace(path string) error {
	labels := r.Labels
	if r.Traces == nil {
		labels = nil
	}
	return trace.WriteJSONLMulti(path, r.Traces, labels)
}

// geometry returns the full-scale or 1/10-scale vehicle parameters and the
// options setting the matching intersection and uncertainty bounds.
func geometry(scaleModel bool) (kinematics.Params, []sim.Option) {
	if scaleModel {
		return kinematics.ScaleModelParams(),
			[]sim.Option{sim.WithIntersection(intersection.ScaleModelConfig()), sim.WithSpec(safety.TestbedSpec())}
	}
	return kinematics.FullScaleParams(),
		[]sim.Option{sim.WithIntersection(intersection.FullScaleConfig()), sim.WithSpec(safety.FullScaleSpec())}
}

// poissonFlow is the single-lane Poisson flow with the default turn mix
// that every rate-driven experiment routes.
func poissonFlow(rate float64, n int, params kinematics.Params) traffic.PoissonConfig {
	return traffic.PoissonConfig{
		Rate:         rate,
		NumVehicles:  n,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       params,
	}
}

// poisson is the single-intersection Poisson workload.
func poisson(rate float64, n int, params kinematics.Params) workload {
	return func(rng *rand.Rand) ([]traffic.Arrival, error) {
		return traffic.Poisson(poissonFlow(rate, n, params), rng)
	}
}
