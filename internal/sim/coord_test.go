package sim

import (
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/plant"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/vehicle"
)

// coordEventCount tallies the coordination plane's footprint in a trace:
// im.digest/im.defer events plus digest messages on the wire.
func coordEventCount(evs []trace.Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == trace.KindIMDigest || ev.Kind == trace.KindIMDefer || ev.MsgKind == "digest" {
			n++
		}
	}
	return n
}

// TestCoordOffCarriesNoCoordEvents pins the coordination plane's
// zero-cost-when-off contract: with Coord unset, a grid run carries no
// coordination events at all (the golden trace test pins the rest of the
// run byte-identical to pre-coordination builds).
func TestCoordOffCarriesNoCoordEvents(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	rec := trace.NewFull()
	cfg, err := NewConfig(
		WithTopology(topo),
		WithPolicy(vehicle.PolicyCrossroads),
		WithSeed(17),
		WithNoise(plant.TestbedNoise()),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, topoWorkload(t, topo, 14, 17)); err != nil {
		t.Fatal(err)
	}
	if n := coordEventCount(rec.Events()); n != 0 {
		t.Fatalf("coord-off run carries %d coordination events", n)
	}
}

// TestCoordRunsClean is the coordination safety gate: a coordinated
// corridor run completes every journey with zero collisions, and the
// digest plane is demonstrably active.
func TestCoordRunsClean(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := line3.WithSegmentLen(0.8)
	rec := trace.NewFull()
	cfg, err := NewConfig(
		WithTopology(topo),
		WithPolicy(vehicle.PolicyCrossroads),
		WithSeed(29),
		WithNoise(plant.TestbedNoise()),
		WithCoordination(0),
		WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, topoWorkload(t, topo, 20, 29))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
		t.Errorf("%d collisions, %d buffer violations with coordination on",
			res.Summary.Collisions, res.Summary.BufferViolations)
	}
	if res.Incomplete != 0 {
		t.Errorf("%d incomplete journeys with coordination on", res.Incomplete)
	}
	received := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindIMDigest {
			received++
		}
	}
	if received == 0 {
		t.Error("no im.digest events — coordination never engaged")
	}
}

// TestCoordResultIndependentOfHorizon pins that a coordinated run ends
// when its fleet does: the IM timers (digest broadcasts, and lease sweeps
// under fault injection) stop at fleet completion, so a longer horizon
// simulates nothing more. Summary, network totals, journey records, and
// the trace down to every DES event are identical under the derived
// horizon and under 2000 s and 4000 s ones.
func TestCoordResultIndependentOfHorizon(t *testing.T) {
	line3, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	topo := line3.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 20, 29)
	stall, _ := fault.Scenario("stall")
	for _, faults := range []*fault.Schedule{nil, stall} {
		run := func(horizon float64) (Result, []trace.Event) {
			rec := trace.NewFull()
			cfg, err := NewConfig(
				WithTopology(topo),
				WithPolicy(vehicle.PolicyCrossroads),
				WithSeed(29),
				WithNoise(plant.TestbedNoise()),
				WithCoordination(0),
				WithFaults(faults),
				WithMaxSimTime(horizon),
				WithTrace(rec),
				WithDESTrace(),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, arr)
			if err != nil {
				t.Fatal(err)
			}
			res.Summary.SchedulerWall = 0
			evs := append([]trace.Event(nil), rec.Events()...)
			trace.CanonicalizeWall(evs)
			return res, evs
		}
		name := "clean"
		if faults != nil {
			name = "stall"
		}
		want, wantEvs := run(0)
		if want.Incomplete != 0 {
			t.Fatalf("%s: %d incomplete journeys under the derived horizon", name, want.Incomplete)
		}
		for _, horizon := range []float64{2000, 4000} {
			got, gotEvs := run(horizon)
			if got.Summary != want.Summary {
				t.Errorf("%s horizon %v: summary differs:\n got %+v\nwant %+v",
					name, horizon, got.Summary, want.Summary)
			}
			if got.Network != want.Network {
				t.Errorf("%s horizon %v: network differs:\n got %+v\nwant %+v",
					name, horizon, got.Network, want.Network)
			}
			if len(got.Vehicles) != len(want.Vehicles) {
				t.Fatalf("%s horizon %v: %d vehicle records, want %d",
					name, horizon, len(got.Vehicles), len(want.Vehicles))
			}
			for i := range want.Vehicles {
				if got.Vehicles[i] != want.Vehicles[i] {
					t.Errorf("%s horizon %v: vehicle record %d differs:\n got %+v\nwant %+v",
						name, horizon, i, got.Vehicles[i], want.Vehicles[i])
				}
			}
			if len(gotEvs) != len(wantEvs) {
				t.Fatalf("%s horizon %v: %d trace events, want %d",
					name, horizon, len(gotEvs), len(wantEvs))
			}
			for i := range wantEvs {
				if gotEvs[i] != wantEvs[i] {
					t.Fatalf("%s horizon %v: trace event %d differs:\n got %+v\nwant %+v",
						name, horizon, i, gotEvs[i], wantEvs[i])
				}
			}
		}
	}
}
