package sweep

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// TestTopoSafetyViolations pins the topology run's share of the run
// verdict. No policy is exempt: on a small corridor every registered
// policy, signalized included, completes its fleet with a zero verdict and
// the gate passes. A verdict set on one cell makes the gate name exactly
// that cell by its "<topology>/<policy>" label.
func TestTopoSafetyViolations(t *testing.T) {
	topo, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTopology(TopoConfig{
		Topology:    topo.WithSegmentLen(0.8),
		Rate:        0.3,
		NumVehicles: 18,
		Policies:    []string{"crossroads", "batch", "dot", "signalized", "auction", "vt-im", "aim"},
		ScaleModel:  true,
		Noisy:       true,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pol := range res.Policies {
		c := res.Cell(pi)
		if c.Violations != 0 || c.Summary.Completed != 18 || c.Unspawned != 0 {
			t.Errorf("%s: violations=%d completed=%d unspawned=%d, want 0, 18, 0",
				pol, c.Violations, c.Summary.Completed, c.Unspawned)
		}
	}
	var out, errs strings.Builder
	if !res.Gate(&out, &errs) || errs.Len() != 0 {
		t.Fatalf("gate failed a clean corridor:\n%s", errs.String())
	}

	res.Results[slices.Index(res.Policies, "signalized")] = sim.Result{Incomplete: 2, Stranded: 2, Violations: 2}
	out.Reset()
	if res.Gate(&out, &errs) {
		t.Error("gate passed a failing signalized cell")
	}
	want := fmt.Sprintf("FAIL %s/signalized: coll=0 bufviol=0 failsafe=0 stranded=2 unspawned=0 violations=2\n"+
		"FAIL: 2 violation(s) in 1 of 7 cells\n", res.Topology)
	if errs.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", errs.String(), want)
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
