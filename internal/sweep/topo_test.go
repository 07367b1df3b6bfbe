package sweep

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/topology"
	"crossroads/internal/vehicle"
)

func scrubWall(cells []TopoCell) []TopoCell {
	out := make([]TopoCell, len(cells))
	for i, c := range cells {
		c.Journey.SchedulerWall = 0
		c.PerNode = append([]metrics.Summary(nil), c.PerNode...)
		for k := range c.PerNode {
			c.PerNode[k].SchedulerWall = 0
		}
		out[i] = c
	}
	return out
}

// TestRunTopologyCorridor smoke-tests the corridor experiment end to end:
// every policy completes the fleet, per-node summaries cover all nodes, and
// the tables render.
func TestRunTopologyCorridor(t *testing.T) {
	topo, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTopology(TopoConfig{
		Topology:    topo.WithSegmentLen(0.8),
		Rate:        0.3,
		NumVehicles: 18,
		ScaleModel:  true,
		Noisy:       true,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Incomplete != 0 {
			t.Errorf("%s: %d incomplete", c.Policy, c.Incomplete)
		}
		if c.Journey.Collisions != 0 {
			t.Errorf("%s: %d collisions", c.Policy, c.Journey.Collisions)
		}
		if len(c.PerNode) != 3 {
			t.Errorf("%s: %d node summaries, want 3", c.Policy, len(c.PerNode))
		}
	}
	if s := res.JourneyTable().String(); !strings.Contains(s, "crossroads") {
		t.Error("journey table missing crossroads row")
	}
	if s := res.PerNodeTable().String(); !strings.Contains(s, "vt-im") {
		t.Error("per-node table missing vt-im rows")
	}
}

// TestRunTopologyParallelMatchesSerial pins the determinism contract on
// the multi-node engine: one worker and four workers must produce
// bit-identical results (wall-clock measurements excluded — they are host
// time, not simulation output).
func TestRunTopologyParallelMatchesSerial(t *testing.T) {
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := TopoConfig{
		Topology:    topo.WithSegmentLen(0.8),
		Rate:        0.3,
		NumVehicles: 12,
		ScaleModel:  true,
		Noisy:       true,
		Seed:        5,
	}
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 4
	a, err := RunTopology(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTopology(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubWall(a.Cells), scrubWall(b.Cells)) {
		t.Errorf("workers=1 and workers=4 disagree:\n a: %+v\n b: %+v", a.Cells, b.Cells)
	}
}

// TestRunTopologySingleMatchesClassicSweep pins the special case: running
// RunTopology on topology.Single() must agree with the classic single-
// intersection engine (same policy, same seed) on the journey summary,
// because the workload generator and world reduce to the identical code
// path shape.
func TestRunTopologySingleMatchesClassicSweep(t *testing.T) {
	res, err := RunTopology(TopoConfig{
		Topology:    topology.Single(),
		Rate:        0.3,
		NumVehicles: 16,
		ScaleModel:  true,
		Seed:        9,
		Policies:    []vehicle.Policy{vehicle.PolicyCrossroads},
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Incomplete != 0 || c.Journey.Completed != 16 {
		t.Fatalf("single-node topology run unhealthy: %+v", c)
	}
	if len(c.PerNode) != 1 {
		t.Fatalf("single-node run has %d node summaries", len(c.PerNode))
	}
	// The lone node's summary and the journey summary must be the same
	// numbers: one intersection, so per-node wait IS end-to-end wait.
	j, n := c.Journey, c.PerNode[0]
	j.SchedulerWall, n.SchedulerWall = 0, 0
	// Journey carries network-global message totals that the node view
	// deliberately omits on multi-node runs; on single-node they share the
	// collector, so everything matches.
	if j != n {
		t.Errorf("journey and node summaries differ on a single-node run:\n journey: %+v\n node:    %+v", j, n)
	}
}

// TestTopoSafetyViolations pins the topology safety gate on hand-built
// cells: timed policies are charged collisions, buffer violations, and
// incomplete journeys; signalized is charged everything but incomplete
// journeys; VT-IM and AIM are not charged at all.
func TestTopoSafetyViolations(t *testing.T) {
	cell := func(pol vehicle.Policy, coll, buf, inc int) TopoCell {
		return TopoCell{
			Policy:     pol.String(),
			Journey:    metrics.Summary{Collisions: coll, BufferViolations: buf},
			Incomplete: inc,
		}
	}
	cases := []struct {
		name string
		pol  vehicle.Policy
		cell TopoCell
		want int
	}{
		{"clean crossroads", vehicle.PolicyCrossroads, cell(vehicle.PolicyCrossroads, 0, 0, 0), 0},
		{"crossroads collision", vehicle.PolicyCrossroads, cell(vehicle.PolicyCrossroads, 1, 0, 0), 1},
		{"crossroads buffer violation", vehicle.PolicyCrossroads, cell(vehicle.PolicyCrossroads, 0, 2, 0), 2},
		{"dot incomplete", vehicle.PolicyDOT, cell(vehicle.PolicyDOT, 0, 0, 3), 3},
		{"auction all three", vehicle.PolicyAuction, cell(vehicle.PolicyAuction, 1, 2, 3), 6},
		{"signalized incomplete exempt", vehicle.PolicySignalized, cell(vehicle.PolicySignalized, 0, 0, 5), 0},
		{"signalized buffer violation", vehicle.PolicySignalized, cell(vehicle.PolicySignalized, 1, 1, 5), 2},
		{"vt-im exempt", vehicle.PolicyVTIM, cell(vehicle.PolicyVTIM, 1, 1, 1), 0},
		{"aim exempt", vehicle.PolicyAIM, cell(vehicle.PolicyAIM, 1, 1, 1), 0},
	}
	var all TopoResult
	wantAll := 0
	for _, tc := range cases {
		r := TopoResult{Policies: []vehicle.Policy{tc.pol}, Cells: []TopoCell{tc.cell}}
		if got := r.SafetyViolations(); got != tc.want {
			t.Errorf("%s: SafetyViolations() = %d, want %d", tc.name, got, tc.want)
		}
		all.Policies = append(all.Policies, tc.pol)
		all.Cells = append(all.Cells, tc.cell)
		wantAll += tc.want
	}
	if got := all.SafetyViolations(); got != wantAll {
		t.Errorf("all cells: SafetyViolations() = %d, want %d", got, wantAll)
	}
}
