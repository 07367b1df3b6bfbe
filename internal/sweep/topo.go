package sweep

import (
	"fmt"
	"math/rand"

	"crossroads/internal/im/signalized"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/parallel"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// TopoConfig parameterizes a multi-intersection experiment: one routed
// workload over a topology, compared across policies.
type TopoConfig struct {
	// Topology is the road network under test; nil means topology.Single().
	Topology *topology.Topology
	// Rate is the input flow per boundary entry lane (car/lane/s).
	Rate float64
	// NumVehicles is the routed fleet.
	NumVehicles int
	// Policies compared; nil means all three.
	Policies []string
	// Seed drives workload generation and simulation noise.
	Seed int64
	// ScaleModel selects the 1/10-scale geometry instead of full-scale.
	ScaleModel bool
	// Noisy enables plant noise.
	Noisy bool
	// Workers bounds concurrent policy cells; every cell derives its RNGs
	// from Seed alone, so the Result is bit-identical for any count.
	Workers int
	// TraceFull gives every policy cell its own full-retention recorder.
	TraceFull bool
	// TraceDES additionally records the kernel event firehose per cell.
	TraceDES bool
	// Coord arms the IM↔IM coordination plane (link-state digests,
	// downstream backpressure, green-wave offsets) in every cell;
	// CoordPeriod overrides the digest period (0 = default).
	Coord       bool
	CoordPeriod float64
	// PolicyParams carries generic "<policy>.<knob>" tuning, shared by
	// every cell; each policy reads only its own namespace.
	PolicyParams map[string]string
}

// TopoCell is one policy's outcome over the topology.
type TopoCell struct {
	Policy string
	// Journey aggregates end-to-end (route-level) records.
	Journey metrics.Summary
	// PerNode holds each intersection's own crossing summary.
	PerNode    []metrics.Summary
	Incomplete int
}

// TopoResult is the full comparison.
type TopoResult struct {
	Topology *topology.Topology
	Policies []string
	Cells    []TopoCell
	// Traces[policyIdx] holds each cell's recorder when TraceFull is set.
	Traces []*trace.Recorder
}

// RunTopology routes one Poisson workload through the topology under every
// policy. Policies run in parallel (bounded by Workers) and each faces the
// identical arrival schedule, exactly as the single-intersection sweep
// shares workloads across its policy columns.
func RunTopology(cfg TopoConfig) (TopoResult, error) {
	if cfg.Topology == nil {
		cfg.Topology = topology.Single()
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 0.30
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
	res := TopoResult{
		Topology: cfg.Topology,
		Policies: policies,
		Cells:    make([]TopoCell, len(policies)),
	}
	if cfg.TraceFull {
		res.Traces = make([]*trace.Recorder, len(policies))
	}
	err := parallel.ForEach(len(policies), cfg.Workers, func(pi int) error {
		pol := policies[pi]
		// Regenerated per cell from the same seed so every policy faces
		// identical arrivals without sharing a slice across goroutines.
		arrivals, err := traffic.PoissonRoutes(traffic.PoissonConfig{
			Rate:         cfg.Rate,
			NumVehicles:  cfg.NumVehicles,
			LanesPerRoad: 1,
			Mix:          traffic.DefaultTurnMix(),
			Params:       params,
		}, cfg.Topology, 0, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return err
		}
		opts := []sim.Option{
			sim.WithTopology(cfg.Topology),
			sim.WithPolicy(pol),
			sim.WithSeed(cfg.Seed),
			sim.WithIntersection(interCfg),
			sim.WithSpec(spec),
		}
		if len(cfg.PolicyParams) > 0 {
			opts = append(opts, sim.WithPolicyParams(cfg.PolicyParams))
		}
		if cfg.Coord {
			opts = append(opts, sim.WithCoordination(cfg.CoordPeriod))
		}
		if cfg.Noisy {
			opts = append(opts, sim.WithNoise(plant.TestbedNoise()))
		}
		if cfg.TraceFull {
			rec := trace.NewFull()
			res.Traces[pi] = rec
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
			return fmt.Errorf("sweep: topology %s %v: %w", cfg.Topology, pol, err)
		}
		res.Cells[pi] = TopoCell{
			Policy:     out.Policy,
			Journey:    out.Summary,
			PerNode:    out.PerNode,
			Incomplete: out.Incomplete,
		}
		return nil
	})
	if err != nil {
		return TopoResult{}, err
	}
	return res, nil
}

// SafetyViolations counts the hard failures of the timed (commanded-
// trajectory) policies over the topology: collisions, buffer violations,
// and incomplete journeys. The acceptance bar is zero. Signalized is exempt
// from the incomplete count only: a fixed-time signal legitimately leaves
// queue remnants when demand exceeds its cycle capacity, but it must never
// collide. VT-IM and AIM are exempt, as in the fault matrix.
func (r TopoResult) SafetyViolations() int {
	n := 0
	for pi, c := range r.Cells {
		pol := r.Policies[pi]
		if !timed(pol) {
			continue
		}
		n += c.Journey.Collisions + c.Journey.BufferViolations
		if pol != signalized.PolicyName {
			n += c.Incomplete
		}
	}
	return n
}

// JourneyTable renders the end-to-end comparison: route-level wait, travel,
// throughput, overhead, and safety per policy.
func (r TopoResult) JourneyTable() *metrics.Table {
	t := metrics.NewTable("policy", "veh", "done", "mean wait (s)", "p95 wait (s)",
		"mean travel (s)", "tput (veh/s)", "messages", "IM calls", "collisions", "buf viol", "incomplete")
	for _, c := range r.Cells {
		t.AddRow(c.Policy, c.Journey.Vehicles, c.Journey.Completed, c.Journey.MeanWait,
			c.Journey.P95Wait, c.Journey.MeanTravel, c.Journey.Throughput,
			c.Journey.Messages, c.Journey.SchedulerInvocations, c.Journey.Collisions,
			c.Journey.BufferViolations, c.Incomplete)
	}
	return t
}

// PerNodeTable renders each intersection's own crossing statistics: the
// wait each node adds against the vehicle's unimpeded arrival at its
// transmission line, plus that node's scheduler load.
func (r TopoResult) PerNodeTable() *metrics.Table {
	t := metrics.NewTable("policy", "node", "crossings", "mean wait (s)", "max wait (s)",
		"IM calls", "IM busy (s)", "collisions")
	for _, c := range r.Cells {
		for node, s := range c.PerNode {
			t.AddRow(c.Policy, node, s.Completed, s.MeanWait, s.MaxWait,
				s.SchedulerInvocations, s.SchedulerSimDelay, s.Collisions)
		}
	}
	return t
}

// WriteTrace streams every policy cell's events as JSONL in deterministic
// order, labelling each event's run field "<topology>/<policy>".
func (r TopoResult) WriteTrace(path string) error {
	recs := make([]*trace.Recorder, 0, len(r.Traces))
	labels := make([]string, 0, len(r.Traces))
	for pi, rec := range r.Traces {
		if rec == nil {
			continue
		}
		recs = append(recs, rec)
		labels = append(labels, fmt.Sprintf("%s/%s", r.Topology, r.Cells[pi].Policy))
	}
	return trace.WriteJSONLMulti(path, recs, labels)
}
