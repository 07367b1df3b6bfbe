// Package sweep drives the paper's §7.2 scalability study (Fig. 7.2 and the
// overhead comparison): Poisson input flows from 0.05 to 1.25 vehicles per
// lane-second routing a fixed fleet through a single-lane four-way, under
// all three IM policies, reporting throughput (vehicles per total wait
// time, the paper's definition), computation, and network load.
package sweep

import (
	"fmt"
	"math/rand"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/parallel"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
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
	// FullScale selects the full-size geometry (default) versus the
	// 1/10-scale model.
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

// Cell is one (rate, policy) outcome.
type Cell struct {
	Rate                 float64
	Policy               string
	Throughput           float64 // completed / total travel time (paper definition)
	MeanWait             float64 // excess delay over free flow
	MeanTravel           float64
	Messages             int
	Bytes                int
	MeanRetries          float64
	SchedulerSimDelay    float64
	SchedulerInvocations int
	Collisions           int
	BufferViolations     int
	Incomplete           int
	// FailsafeStopped and Stranded split Incomplete the way sim.Result
	// does: failsafe-stopped vehicles ended the run standing short of the
	// box (graceful saturation), stranded ones in any other state.
	FailsafeStopped int
	Stranded        int
}

// Result is the full sweep.
type Result struct {
	Policies []string
	// Cells[rateIdx][policyIdx]
	Cells [][]Cell
	// Traces[rateIdx][policyIdx] holds each cell's event recorder when
	// Config.TraceFull is set (nil otherwise).
	Traces [][]*trace.Recorder
}

// TraceSummary merges every cell's per-kind counts, latency histogram, and
// queue high-water mark into one sweep-wide summary.
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
// order, labelling each event's run field "rate=<rate>/<policy>" so a
// single file holds the whole sweep unambiguously.
func (r Result) WriteTrace(path string) error {
	recs := make([]*trace.Recorder, 0, len(r.Traces)*len(r.Policies))
	labels := make([]string, 0, cap(recs))
	for ri, row := range r.Traces {
		for pi, rec := range row {
			if rec == nil {
				continue
			}
			recs = append(recs, rec)
			labels = append(labels, fmt.Sprintf("rate=%g/%s", r.Cells[ri][pi].Rate, r.Cells[ri][pi].Policy))
		}
	}
	return trace.WriteJSONLMulti(path, recs, labels)
}

// Run executes the sweep.
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
	params := kinematics.FullScaleParams()
	interCfg := intersection.FullScaleConfig()
	spec := safety.FullScaleSpec()
	if cfg.ScaleModel {
		params = kinematics.ScaleModelParams()
		interCfg = intersection.ScaleModelConfig()
		spec = safety.TestbedSpec()
	}
	res := Result{Policies: policies}
	res.Cells = make([][]Cell, len(cfg.Rates))
	for i := range res.Cells {
		res.Cells[i] = make([]Cell, len(policies))
	}
	if cfg.TraceFull {
		res.Traces = make([][]*trace.Recorder, len(cfg.Rates))
		for i := range res.Traces {
			res.Traces[i] = make([]*trace.Recorder, len(policies))
		}
	}

	// Every (rate, policy) cell is an independent simulation: the
	// workload is regenerated per cell from the same seed (so policies
	// at one rate still face identical arrivals, exactly as the serial
	// code shared one slice), and each result lands in its own
	// pre-allocated slot. That makes the fan-out embarrassingly parallel
	// and the output bit-identical for any worker count.
	err := parallel.ForEach(len(cfg.Rates)*len(policies), cfg.Workers, func(job int) error {
		ri, pi := job/len(policies), job%len(policies)
		rate, pol := cfg.Rates[ri], policies[pi]
		arrivals, err := traffic.Poisson(traffic.PoissonConfig{
			Rate:         rate,
			NumVehicles:  cfg.NumVehicles,
			LanesPerRoad: 1,
			Mix:          traffic.DefaultTurnMix(),
			Params:       params,
		}, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return err
		}
		opts := []sim.Option{
			sim.WithPolicy(pol),
			sim.WithSeed(cfg.Seed),
			sim.WithIntersection(interCfg),
			sim.WithSpec(spec),
		}
		if len(cfg.PolicyParams) > 0 {
			opts = append(opts, sim.WithPolicyParams(cfg.PolicyParams))
		}
		if cfg.Noisy {
			opts = append(opts, sim.WithNoise(plant.TestbedNoise()))
		}
		if cfg.TraceFull {
			rec := trace.NewFull()
			res.Traces[ri][pi] = rec
			opts = append(opts, sim.WithTrace(rec))
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
			return fmt.Errorf("sweep: rate %v %v: %w", rate, pol, err)
		}
		res.Cells[ri][pi] = Cell{
			Rate:                 rate,
			Policy:               out.Policy,
			Throughput:           out.Summary.Throughput,
			MeanWait:             out.Summary.MeanWait,
			MeanTravel:           out.Summary.MeanTravel,
			Messages:             out.Summary.Messages,
			Bytes:                out.Summary.Bytes,
			MeanRetries:          out.Summary.MeanRetries,
			SchedulerSimDelay:    out.Summary.SchedulerSimDelay,
			SchedulerInvocations: out.Summary.SchedulerInvocations,
			Collisions:           out.Summary.Collisions,
			BufferViolations:     out.Summary.BufferViolations,
			Incomplete:           out.Incomplete,
			FailsafeStopped:      out.FailsafeStopped,
			Stranded:             out.Stranded,
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// ThroughputTable renders the Fig. 7.2 series.
func (r Result) ThroughputTable() *metrics.Table {
	headers := []string{"rate (car/s/lane)"}
	for _, p := range r.Policies {
		headers = append(headers, p+" tput")
	}
	t := metrics.NewTable(headers...)
	for _, row := range r.Cells {
		cells := []any{row[0].Rate}
		for _, c := range row {
			cells = append(cells, c.Throughput)
		}
		t.AddRow(cells...)
	}
	return t
}

// OverheadTable renders the computation/network comparison (paper: AIM up
// to ~16x compute and ~20x traffic versus the velocity-transaction IMs).
func (r Result) OverheadTable() *metrics.Table {
	t := metrics.NewTable("rate", "policy", "messages", "bytes", "IM calls", "IM busy (s)", "retries/veh")
	for _, row := range r.Cells {
		for _, c := range row {
			t.AddRow(c.Rate, c.Policy, c.Messages, c.Bytes, c.SchedulerInvocations, c.SchedulerSimDelay, c.MeanRetries)
		}
	}
	return t
}

// policyIndex finds a policy column, or -1 (including on an empty sweep).
func (r Result) policyIndex(name string) int {
	if len(r.Cells) == 0 {
		return -1
	}
	for i := range r.Cells[0] {
		if r.Cells[0][i].Policy == name {
			return i
		}
	}
	return -1
}

// Headline computes the paper's summary ratios: Crossroads versus another
// policy's throughput, worst-case (max over rates) and average.
func (r Result) Headline(other string) (worst, avg float64, err error) {
	ci := r.policyIndex("crossroads")
	oi := r.policyIndex(other)
	if ci < 0 || oi < 0 {
		return 0, 0, fmt.Errorf("sweep: policies missing for headline (%q)", other)
	}
	var sum float64
	n := 0
	for _, row := range r.Cells {
		if row[oi].Throughput <= 0 {
			continue
		}
		ratio := row[ci].Throughput / row[oi].Throughput
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
