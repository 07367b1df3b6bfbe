// Package scale reproduces the paper's 1/10-scale physical experiment
// (§7.1, Fig. 7.1): ten traffic scenarios — scenario 1 the designed worst
// case of simultaneous arrivals, scenario 10 the designed best case of
// sparse traffic — each run repeatedly under both the buffered VT-IM and
// Crossroads, comparing average wait times. The paper measured Crossroads
// 1.24x better in the worst case down to 1.08x in the best, a ~24% average
// wait-time reduction.
package scale

import (
	"fmt"
	"math/rand"

	"crossroads/internal/metrics"
	"crossroads/internal/parallel"
	"crossroads/internal/plant"
	"crossroads/internal/sim"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// Config parameterizes the experiment.
type Config struct {
	// Repetitions per scenario (paper: 10).
	Repetitions int
	// Seed drives scenario randomization and all simulation noise.
	Seed int64
	// Noisy enables the calibrated testbed plant disturbance.
	Noisy bool
	// Policies to compare; nil means the paper's pair (VT-IM, Crossroads).
	Policies []string
	// Workers bounds how many (scenario, policy) cells run concurrently:
	// 1 is serial, <= 0 uses runtime.NumCPU(). Each cell's repetitions
	// are seeded from Seed alone, so the Result is bit-identical for any
	// worker count.
	Workers int
	// TraceFull gives every (scenario, policy) cell its own full-retention
	// event recorder spanning all of the cell's repetitions (they run
	// serially inside the cell); streams land in Result.Traces.
	TraceFull bool
	// TraceDES additionally records the kernel event firehose per cell.
	TraceDES bool
	// PolicyParams carries generic "<policy>.<knob>" tuning, shared by
	// every cell; each policy reads only its own namespace.
	PolicyParams map[string]string
}

// DefaultConfig returns the paper's experiment setup.
func DefaultConfig() Config {
	return Config{Repetitions: 10, Seed: 1, Noisy: true}
}

// ScenarioResult aggregates one scenario's repetitions for one policy.
type ScenarioResult struct {
	Scenario int
	Policy   string
	// MeanWait is the paper's Fig. 7.1 metric: the line-to-exit travel
	// time averaged over vehicles and repetitions (the best-case scenario
	// bottoms out at the free-flow travel time, exactly as in the paper).
	MeanWait float64
	// MeanDelay is the excess over free flow.
	MeanDelay  float64
	MeanMax    float64
	Collisions int
	Incomplete int
}

// Result is the full experiment outcome.
type Result struct {
	// PerScenario[scenario-1][policyIndex]
	PerScenario [][]ScenarioResult
	Policies    []string
	// Traces[scenario-1][policyIndex] holds each cell's event recorder
	// when Config.TraceFull is set (nil otherwise).
	Traces [][]*trace.Recorder
}

// TraceSummary merges every cell's trace summary into one.
func (r Result) TraceSummary() trace.Summary {
	var s trace.Summary
	for _, row := range r.Traces {
		for _, rec := range row {
			s.Merge(rec.Summary())
		}
	}
	return s
}

// WriteTrace streams every cell's events as JSONL in deterministic cell
// order, labelling each event's run field "scenario=<n>/<policy>".
func (r Result) WriteTrace(path string) error {
	recs := make([]*trace.Recorder, 0, len(r.Traces)*len(r.Policies))
	labels := make([]string, 0, cap(recs))
	for si, row := range r.Traces {
		for pi, rec := range row {
			if rec == nil {
				continue
			}
			recs = append(recs, rec)
			labels = append(labels, fmt.Sprintf("scenario=%d/%s", si+1, r.Policies[pi]))
		}
	}
	return trace.WriteJSONLMulti(path, recs, labels)
}

// AverageWait returns a policy's wait time averaged over all scenarios.
func (r Result) AverageWait(policyIdx int) float64 {
	var total float64
	for _, row := range r.PerScenario {
		total += row[policyIdx].MeanWait
	}
	return total / float64(len(r.PerScenario))
}

// Speedup returns how much lower policy b's average wait is than policy
// a's, as the ratio wait(a)/wait(b), per scenario.
func (r Result) Speedup(a, b int) []float64 {
	out := make([]float64, len(r.PerScenario))
	for i, row := range r.PerScenario {
		out[i] = row[a].MeanWait / row[b].MeanWait
	}
	return out
}

// Run executes the experiment.
func Run(cfg Config) (Result, error) {
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []string{"vt-im", "crossroads"}
	}
	res := Result{Policies: policies}
	res.PerScenario = make([][]ScenarioResult, traffic.NumScaleScenarios)
	for i := range res.PerScenario {
		res.PerScenario[i] = make([]ScenarioResult, len(policies))
	}
	if cfg.TraceFull {
		res.Traces = make([][]*trace.Recorder, traffic.NumScaleScenarios)
		for i := range res.Traces {
			res.Traces[i] = make([]*trace.Recorder, len(policies))
		}
	}

	// Each (scenario, policy) cell is an independent job: its repetitions
	// run serially inside the job (so the floating-point accumulation
	// order is fixed) and the workload for each repetition is regenerated
	// from the same scenario seed the serial code used — every policy
	// still faces identical arrivals, and the Result is bit-identical for
	// any worker count.
	err := parallel.ForEach(traffic.NumScaleScenarios*len(policies), cfg.Workers, func(job int) error {
		scen, pi := job/len(policies)+1, job%len(policies)
		pol := policies[pi]
		cell := ScenarioResult{Scenario: scen, Policy: pol}
		for rep := 0; rep < cfg.Repetitions; rep++ {
			seed := cfg.Seed + int64(scen*1000+rep)
			arrivals, err := traffic.ScaleScenario(scen, rand.New(rand.NewSource(seed)))
			if err != nil {
				return err
			}
			opts := []sim.Option{sim.WithPolicy(pol), sim.WithSeed(seed)}
			if len(cfg.PolicyParams) > 0 {
				opts = append(opts, sim.WithPolicyParams(cfg.PolicyParams))
			}
			if cfg.Noisy {
				opts = append(opts, sim.WithNoise(plant.TestbedNoise()))
			}
			if cfg.TraceFull {
				if res.Traces[scen-1][pi] == nil {
					res.Traces[scen-1][pi] = trace.NewFull()
				}
				opts = append(opts, sim.WithTrace(res.Traces[scen-1][pi]))
				if cfg.TraceDES {
					opts = append(opts, sim.WithDESTrace())
				}
			}
			simCfg, err := sim.NewConfig(opts...)
			if err != nil {
				return err
			}
			out, err := sim.Run(simCfg, arrivals)
			if err != nil {
				return fmt.Errorf("scale: scenario %d rep %d %v: %w", scen, rep, pol, err)
			}
			cell.MeanWait += out.Summary.MeanTravel
			cell.MeanDelay += out.Summary.MeanWait
			cell.MeanMax += out.Summary.MaxWait
			cell.Collisions += out.Summary.Collisions
			cell.Incomplete += out.Incomplete
		}
		cell.MeanWait /= float64(cfg.Repetitions)
		cell.MeanDelay /= float64(cfg.Repetitions)
		cell.MeanMax /= float64(cfg.Repetitions)
		res.PerScenario[scen-1][pi] = cell
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Table renders the Fig. 7.1 comparison.
func (r Result) Table() *metrics.Table {
	headers := []string{"scenario"}
	for _, p := range r.Policies {
		headers = append(headers, p+" wait (s)")
	}
	if len(r.Policies) == 2 {
		headers = append(headers, "ratio")
	}
	t := metrics.NewTable(headers...)
	for i, row := range r.PerScenario {
		cells := []any{i + 1}
		for _, sr := range row {
			cells = append(cells, sr.MeanWait)
		}
		if len(row) == 2 {
			cells = append(cells, row[0].MeanWait/row[1].MeanWait)
		}
		t.AddRow(cells...)
	}
	avg := []any{"AVG"}
	for pi := range r.Policies {
		avg = append(avg, r.AverageWait(pi))
	}
	if len(r.Policies) == 2 {
		avg = append(avg, r.AverageWait(0)/r.AverageWait(1))
	}
	t.AddRow(avg...)
	return t
}
