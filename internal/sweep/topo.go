package sweep

import (
	"fmt"
	"math/rand"

	"crossroads/internal/im/signalized"
	"crossroads/internal/metrics"
	"crossroads/internal/sim"
	"crossroads/internal/topology"
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

// TopoResult is the full comparison. Its runs are in policy order,
// labelled "<topology>/<policy>"; each run's Summary aggregates the
// end-to-end (route-level) journeys and its PerNode holds each
// intersection's own crossing summary.
type TopoResult struct {
	Runs
	Topology *topology.Topology
	Policies []string
}

// Cell returns the outcome of one policy's run.
func (r TopoResult) Cell(pi int) sim.Result { return r.Results[pi] }

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
	params, geo := geometry(cfg.ScaleModel)
	flow := poissonFlow(cfg.Rate, cfg.NumVehicles, params)
	routes := func(rng *rand.Rand) ([]traffic.Arrival, error) {
		return traffic.PoissonRoutes(flow, cfg.Topology, 0, rng)
	}
	opts := append(geo, sim.WithTopology(cfg.Topology))
	if cfg.Coord {
		opts = append(opts, sim.WithCoordination(cfg.CoordPeriod))
	}
	cells := make([]cell, len(policies))
	for pi, pol := range policies {
		cells[pi] = cell{
			label:    fmt.Sprintf("%s/%s", cfg.Topology, pol),
			policy:   pol,
			seed:     cfg.Seed,
			workload: routes,
			opts:     opts,
		}
	}
	runs, err := runCells(cells, shared{cfg.Workers, cfg.PolicyParams, cfg.Noisy, cfg.TraceFull, cfg.TraceDES})
	if err != nil {
		return TopoResult{}, err
	}
	return TopoResult{Runs: runs, Topology: cfg.Topology, Policies: policies}, nil
}

// SafetyViolations counts the hard failures of the timed (commanded-
// trajectory) policies over the topology: collisions, buffer violations,
// and incomplete journeys. The acceptance bar is zero. Signalized is exempt
// from the incomplete count only: a fixed-time signal legitimately leaves
// queue remnants when demand exceeds its cycle capacity, but it must never
// collide. VT-IM and AIM are exempt, as in the fault matrix.
func (r TopoResult) SafetyViolations() int {
	n := 0
	for pi, pol := range r.Policies {
		if !timed(pol) {
			continue
		}
		c := r.Cell(pi)
		n += c.Summary.Collisions + c.Summary.BufferViolations
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
	for pi, pol := range r.Policies {
		c := r.Cell(pi)
		j := c.Summary
		t.AddRow(pol, j.Vehicles, j.Completed, j.MeanWait, j.P95Wait, j.MeanTravel, j.Throughput,
			j.Messages, j.SchedulerInvocations, j.Collisions, j.BufferViolations, c.Incomplete)
	}
	return t
}

// PerNodeTable renders each intersection's own crossing statistics: the
// wait each node adds against the vehicle's unimpeded arrival at its
// transmission line, plus that node's scheduler load.
func (r TopoResult) PerNodeTable() *metrics.Table {
	t := metrics.NewTable("policy", "node", "crossings", "mean wait (s)", "max wait (s)",
		"IM calls", "IM busy (s)", "collisions")
	for pi, pol := range r.Policies {
		for node, s := range r.Cell(pi).PerNode {
			t.AddRow(pol, node, s.Completed, s.MeanWait, s.MaxWait,
				s.SchedulerInvocations, s.SchedulerSimDelay, s.Collisions)
		}
	}
	return t
}
