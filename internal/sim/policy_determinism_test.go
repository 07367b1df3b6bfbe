package sim

import (
	"testing"

	"crossroads/internal/plant"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
)

// TestNewPoliciesCleanAndDeterministic runs each of the new policy
// families — dot, signalized, auction — on the same noisy 2x2 grid: every
// run must be safe (no collisions, buffer violations, or stranded
// vehicles), and a second run of the same config must reproduce the first
// bit for bit. A policy that consults map-iteration order or wall time in
// its scheduling path fails here before it can corrupt a sweep.
func TestNewPoliciesCleanAndDeterministic(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 14, 23)
	params := map[string]string{
		"dot.grid":          "10",
		"auction.emergency": "4",
		"signalized.green":  "6",
	}
	for _, pol := range []string{"dot", "signalized", "auction"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			run := func() (Result, []trace.Event) {
				rec := trace.NewFull()
				cfg, err := NewConfig(
					WithTopology(topo),
					WithPolicy(pol),
					WithPolicyParams(params),
					WithSeed(23),
					WithNoise(plant.TestbedNoise()),
					WithTrace(rec),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, arr)
				if err != nil {
					t.Fatal(err)
				}
				evs := append([]trace.Event(nil), rec.Events()...)
				trace.CanonicalizeWall(evs)
				res.Summary.SchedulerWall = 0
				for k := range res.PerNode {
					res.PerNode[k].SchedulerWall = 0
				}
				return res, evs
			}
			want, wantEvs := run()
			if want.Summary.Collisions != 0 || want.Summary.BufferViolations != 0 || want.Stranded != 0 {
				t.Fatalf("policy %v: %d collisions, %d buffer violations, %d stranded", pol,
					want.Summary.Collisions, want.Summary.BufferViolations, want.Stranded)
			}
			got, gotEvs := run()
			if len(got.Vehicles) != len(want.Vehicles) {
				t.Fatalf("rerun: %d vehicles, want %d", len(got.Vehicles), len(want.Vehicles))
			}
			for i := range want.Vehicles {
				if got.Vehicles[i] != want.Vehicles[i] {
					t.Fatalf("rerun: vehicle record %d differs:\n got %+v\nwant %+v",
						i, got.Vehicles[i], want.Vehicles[i])
				}
			}
			if got.Summary != want.Summary {
				t.Errorf("rerun: summary differs:\n got %+v\nwant %+v", got.Summary, want.Summary)
			}
			if got.Network != want.Network {
				t.Errorf("rerun: network stats differ:\n got %+v\nwant %+v", got.Network, want.Network)
			}
			if len(gotEvs) != len(wantEvs) {
				t.Fatalf("rerun: trace length %d, want %d", len(gotEvs), len(wantEvs))
			}
			for i := range wantEvs {
				if gotEvs[i] != wantEvs[i] {
					t.Fatalf("rerun: trace event %d differs:\n got %+v\nwant %+v", i, gotEvs[i], wantEvs[i])
				}
			}
		})
	}
}
