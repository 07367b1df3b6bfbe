package sweep

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
	"crossroads/internal/topology"
)

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
	if len(res.Results) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Results))
	}
	for _, c := range res.Results {
		if c.Incomplete != 0 {
			t.Errorf("%s: %d incomplete", c.Policy, c.Incomplete)
		}
		if c.Summary.Collisions != 0 {
			t.Errorf("%s: %d collisions", c.Policy, c.Summary.Collisions)
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
	if !reflect.DeepEqual(simulated(a.Runs), simulated(b.Runs)) {
		t.Errorf("workers=1 and workers=4 disagree:\n a:\n%s\n b:\n%s", a.JourneyTable(), b.JourneyTable())
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
		Policies:    []string{"crossroads"},
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cell(0)
	if c.Incomplete != 0 || c.Summary.Completed != 16 {
		t.Fatalf("single-node topology run unhealthy: %+v", c)
	}
	if len(c.PerNode) != 1 {
		t.Fatalf("single-node run has %d node summaries", len(c.PerNode))
	}
	// The lone node's summary and the journey summary must be the same
	// numbers: one intersection, so per-node wait IS end-to-end wait.
	j, n := c.Summary, c.PerNode[0]
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
	cell := func(pol string, coll, buf, inc int) sim.Result {
		return sim.Result{
			Policy:     pol,
			Summary:    metrics.Summary{Collisions: coll, BufferViolations: buf},
			Incomplete: inc,
		}
	}
	cases := []struct {
		name string
		pol  string
		cell sim.Result
		want int
	}{
		{"clean crossroads", "crossroads", cell("crossroads", 0, 0, 0), 0},
		{"crossroads collision", "crossroads", cell("crossroads", 1, 0, 0), 1},
		{"crossroads buffer violation", "crossroads", cell("crossroads", 0, 2, 0), 2},
		{"dot incomplete", "dot", cell("dot", 0, 0, 3), 3},
		{"auction all three", "auction", cell("auction", 1, 2, 3), 6},
		{"signalized incomplete exempt", "signalized", cell("signalized", 0, 0, 5), 0},
		{"signalized buffer violation", "signalized", cell("signalized", 1, 1, 5), 2},
		{"vt-im exempt", "vt-im", cell("vt-im", 1, 1, 1), 0},
		{"aim exempt", "aim", cell("aim", 1, 1, 1), 0},
	}
	var all TopoResult
	wantAll := 0
	for _, tc := range cases {
		r := TopoResult{Runs: Runs{Results: []sim.Result{tc.cell}}, Policies: []string{tc.pol}}
		if got := r.SafetyViolations(); got != tc.want {
			t.Errorf("%s: SafetyViolations() = %d, want %d", tc.name, got, tc.want)
		}
		all.Policies = append(all.Policies, tc.pol)
		all.Results = append(all.Results, tc.cell)
		wantAll += tc.want
	}
	if got := all.SafetyViolations(); got != wantAll {
		t.Errorf("all cells: SafetyViolations() = %d, want %d", got, wantAll)
	}
}
