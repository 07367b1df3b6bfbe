package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/kinematics"
	"crossroads/internal/plant"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

// topoWorkload builds a routed Poisson workload over topo.
func topoWorkload(t *testing.T, topo *topology.Topology, n int, seed int64) []traffic.Arrival {
	t.Helper()
	arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
		Rate: 0.3, NumVehicles: n, LanesPerRoad: 1,
		Mix:    traffic.DefaultTurnMix(),
		Params: kinematics.ScaleModelParams(),
	}, topo, 0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestTopologyRunsCleanUnderAllPolicies is the acceptance check of the
// multi-IM engine: a 3-intersection corridor and a 2x2 grid run to
// completion under all three protocols with calibrated testbed noise, with
// zero collisions and zero buffer violations, and the per-node summaries
// account for every crossing.
func TestTopologyRunsCleanUnderAllPolicies(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		topo *topology.Topology
	}{
		{"corridor-3", line3.WithSegmentLen(0.8)},
		{"grid-2x2", grid22.WithSegmentLen(0.8)},
	}
	policies := []string{"vt-im", "crossroads", "aim"}
	for _, tc := range topos {
		for _, pol := range policies {
			pol := pol
			tc := tc
			t.Run(tc.name+"/"+pol, func(t *testing.T) {
				t.Parallel()
				arr := topoWorkload(t, tc.topo, 20, 7)
				res, err := Run(Config{
					Topology: tc.topo,
					Policy:   pol,
					Noise:    plant.TestbedNoise(),
					Seed:     7,
				}, arr)
				if err != nil {
					t.Fatal(err)
				}
				if res.Incomplete != 0 {
					t.Errorf("%d vehicles incomplete", res.Incomplete)
				}
				if res.Summary.Completed != len(arr) {
					t.Errorf("completed %d of %d journeys", res.Summary.Completed, len(arr))
				}
				if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
					t.Errorf("collisions=%d bufferViolations=%d, want 0/0",
						res.Summary.Collisions, res.Summary.BufferViolations)
				}
				if len(res.PerNode) != tc.topo.NumNodes() {
					t.Fatalf("PerNode has %d entries, want %d", len(res.PerNode), tc.topo.NumNodes())
				}
				// Every journey leg must appear in exactly one node summary,
				// and at least one vehicle must actually traverse multiple
				// nodes, or the topology engine is not being exercised.
				crossings, journeys := 0, 0
				for _, s := range res.PerNode {
					crossings += s.Completed
				}
				for _, r := range res.Vehicles {
					if r.Done {
						journeys++
					}
				}
				if crossings <= journeys {
					t.Errorf("crossings=%d journeys=%d: no vehicle crossed more than one intersection", crossings, journeys)
				}
				// End-to-end wait must be at least as pessimistic as any
				// single vehicle is delayed: sanity that journey records use
				// route-level free flow (a grossly negative wait would mean
				// the route distance was miscounted).
				if res.Summary.MeanWait < 0 {
					t.Errorf("negative mean journey wait %v", res.Summary.MeanWait)
				}
			})
		}
	}
}

// TestSingleTopologyMatchesNilConfig pins the tentpole's compatibility
// contract: passing an explicit topology.Single() must reproduce the nil-
// topology (classic single-intersection) results bit for bit.
func TestSingleTopologyMatchesNilConfig(t *testing.T) {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 0.6, NumVehicles: 24, LanesPerRoad: 1,
		Mix:    traffic.DefaultTurnMix(),
		Params: kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Policy: "crossroads", Noise: plant.TestbedNoise(), Seed: 3}
	withNil, err := Run(base, arr)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Topology = topology.Single()
	withSingle, err := Run(explicit, arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(withNil.Vehicles) != len(withSingle.Vehicles) {
		t.Fatalf("vehicle counts differ: %d vs %d", len(withNil.Vehicles), len(withSingle.Vehicles))
	}
	for i := range withNil.Vehicles {
		if withNil.Vehicles[i] != withSingle.Vehicles[i] {
			t.Errorf("vehicle record %d differs:\n nil:    %+v\n single: %+v",
				i, withNil.Vehicles[i], withSingle.Vehicles[i])
		}
	}
	// SchedulerWall is host wall-clock time — the only legitimately
	// non-deterministic summary field.
	sa, sb := withNil.Summary, withSingle.Summary
	sa.SchedulerWall, sb.SchedulerWall = 0, 0
	if sa != sb {
		t.Errorf("summaries differ:\n nil:    %+v\n single: %+v", sa, sb)
	}
	if withNil.Network != withSingle.Network {
		t.Errorf("network stats differ:\n nil:    %+v\n single: %+v", withNil.Network, withSingle.Network)
	}
}
