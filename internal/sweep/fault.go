// The robustness matrix: every fault scenario crossed with every policy and
// several seeds, each cell an independent seeded simulation. The matrix is
// the fault layer's acceptance harness — under every scripted disruption the
// coordinated policies must keep zero collisions and zero buffer violations,
// and every vehicle must either complete or end standing in a failsafe stop
// (never stranded mid-intersection).
package sweep

import (
	"fmt"
	"math/rand"

	"crossroads/internal/fault"
	"crossroads/internal/im"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/parallel"
	"crossroads/internal/sim"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
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

// DefaultFaultMatrixConfig returns the standard matrix: all named scenarios
// x all four policies x three seeds at the scale-model geometry.
func DefaultFaultMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{}
}

// FaultCell is one (scenario, policy, seed) outcome.
type FaultCell struct {
	Scenario string
	Policy   string
	Seed     int64

	Throughput       float64
	MeanWait         float64
	Collisions       int
	BufferViolations int
	Completed        int
	Incomplete       int
	FailsafeStopped  int
	Stranded         int
	// Dropped and Duplicated are the network's loss and fault-duplication
	// counters — the scenario's observable footprint on the radio.
	Dropped    int
	Duplicated int
}

// FaultMatrixResult is the full matrix.
type FaultMatrixResult struct {
	// Scenarios always starts with CleanScenario.
	Scenarios []string
	Policies  []string
	Seeds     []int64
	// Cells[scenarioIdx][policyIdx][seedIdx]
	Cells [][][]FaultCell
	// Traces mirrors Cells when FaultMatrixConfig.TraceFull is set.
	Traces [][][]*trace.Recorder
}

// CleanThroughput returns the baseline throughput for a (policy, seed)
// column, or 0 when the matrix is empty.
func (r FaultMatrixResult) CleanThroughput(pi, wi int) float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	return r.Cells[0][pi][wi].Throughput
}

// timed reports whether a policy speaks the timed protocol, per its
// registry entry: the policies the safety gates hold to zero.
func timed(policy string) bool {
	e, err := im.LookupPolicy(policy)
	return err == nil && e.Protocol == im.ProtocolTimed
}

// SafetyViolations counts the hard failures of the timed (commanded-
// trajectory) policies — crossroads, batch, dot, signalized, auction —
// across the whole matrix: collisions, buffer violations, and stranded
// vehicles. The acceptance bar is zero. VT-IM and AIM are exempt: their
// protocols predate the committed-rebook machinery the bar depends on.
func (r FaultMatrixResult) SafetyViolations() int {
	n := 0
	for _, row := range r.Cells {
		for pi, col := range row {
			if !timed(r.Policies[pi]) {
				continue
			}
			for _, c := range col {
				n += c.Collisions + c.BufferViolations + c.Stranded
			}
		}
	}
	return n
}

// Table renders every cell with its throughput relative to the same
// (policy, seed) clean baseline.
func (r FaultMatrixResult) Table() *metrics.Table {
	t := metrics.NewTable("scenario", "policy", "seed", "tput", "tput/clean",
		"coll", "bufviol", "failsafe", "stranded", "dropped", "dup")
	for si, row := range r.Cells {
		for pi, col := range row {
			for wi, c := range col {
				rel := 0.0
				if base := r.CleanThroughput(pi, wi); base > 0 {
					rel = c.Throughput / base
				}
				t.AddRow(r.Scenarios[si], c.Policy, c.Seed, c.Throughput, rel,
					c.Collisions, c.BufferViolations, c.FailsafeStopped, c.Stranded,
					c.Dropped, c.Duplicated)
			}
		}
	}
	return t
}

// SummaryTable averages each (scenario, policy) over seeds — the compact
// view EXPERIMENTS.md reports.
func (r FaultMatrixResult) SummaryTable() *metrics.Table {
	t := metrics.NewTable("scenario", "policy", "tput/clean",
		"coll", "bufviol", "incomplete", "failsafe", "stranded")
	for si, row := range r.Cells {
		for pi, col := range row {
			var rel float64
			var coll, buf, inc, fs, str int
			n := 0
			for wi, c := range col {
				if base := r.CleanThroughput(pi, wi); base > 0 {
					rel += c.Throughput / base
					n++
				}
				coll += c.Collisions
				buf += c.BufferViolations
				inc += c.Incomplete
				fs += c.FailsafeStopped
				str += c.Stranded
			}
			if n > 0 {
				rel /= float64(n)
			}
			t.AddRow(r.Scenarios[si], col[0].Policy, rel, coll, buf, inc, fs, str)
		}
	}
	return t
}

// WriteTrace streams every cell's events as JSONL in deterministic cell
// order, labelled "scenario/policy/seed".
func (r FaultMatrixResult) WriteTrace(path string) error {
	var recs []*trace.Recorder
	var labels []string
	for si, row := range r.Traces {
		for pi, col := range row {
			for wi, rec := range col {
				if rec == nil {
					continue
				}
				recs = append(recs, rec)
				labels = append(labels, fmt.Sprintf("%s/%s/seed=%d",
					r.Scenarios[si], r.Cells[si][pi][wi].Policy, r.Seeds[wi]))
			}
		}
	}
	return trace.WriteJSONLMulti(path, recs, labels)
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

	res := FaultMatrixResult{Scenarios: scenarios, Policies: cfg.Policies, Seeds: cfg.Seeds}
	nP, nW := len(cfg.Policies), len(cfg.Seeds)
	res.Cells = make([][][]FaultCell, len(scenarios))
	for si := range res.Cells {
		res.Cells[si] = make([][]FaultCell, nP)
		for pi := range res.Cells[si] {
			res.Cells[si][pi] = make([]FaultCell, nW)
		}
	}
	if cfg.TraceFull {
		res.Traces = make([][][]*trace.Recorder, len(scenarios))
		for si := range res.Traces {
			res.Traces[si] = make([][]*trace.Recorder, nP)
			for pi := range res.Traces[si] {
				res.Traces[si][pi] = make([]*trace.Recorder, nW)
			}
		}
	}

	params := kinematics.ScaleModelParams()
	err := parallel.ForEach(len(scenarios)*nP*nW, cfg.Workers, func(job int) error {
		si := job / (nP * nW)
		pi := job % (nP * nW) / nW
		wi := job % nW
		pol, seed := cfg.Policies[pi], cfg.Seeds[wi]
		arrivals, err := traffic.Poisson(traffic.PoissonConfig{
			Rate:         cfg.Rate,
			NumVehicles:  cfg.NumVehicles,
			LanesPerRoad: 1,
			Mix:          traffic.DefaultTurnMix(),
			Params:       params,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		opts := []sim.Option{
			sim.WithPolicy(pol),
			sim.WithSeed(seed),
			sim.WithFaults(schedules[si]),
		}
		if len(cfg.PolicyParams) > 0 {
			opts = append(opts, sim.WithPolicyParams(cfg.PolicyParams))
		}
		if cfg.TraceFull {
			rec := trace.NewFull()
			res.Traces[si][pi][wi] = rec
			opts = append(opts, sim.WithTrace(rec))
		}
		simCfg, err := sim.NewConfig(opts...)
		if err != nil {
			return err
		}
		out, err := sim.Run(simCfg, arrivals)
		if err != nil {
			return fmt.Errorf("sweep: %s/%v/seed=%d: %w", scenarios[si], pol, seed, err)
		}
		res.Cells[si][pi][wi] = FaultCell{
			Scenario:         scenarios[si],
			Policy:           out.Policy,
			Seed:             seed,
			Throughput:       out.Summary.Throughput,
			MeanWait:         out.Summary.MeanWait,
			Collisions:       out.Summary.Collisions,
			BufferViolations: out.Summary.BufferViolations,
			Completed:        out.Summary.Completed,
			Incomplete:       out.Incomplete,
			FailsafeStopped:  out.FailsafeStopped,
			Stranded:         out.Stranded,
			Dropped:          out.Network.Dropped,
			Duplicated:       out.Network.Duplicated,
		}
		return nil
	})
	if err != nil {
		return FaultMatrixResult{}, err
	}
	return res, nil
}
