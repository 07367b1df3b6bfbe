package crossroads_test

import (
	"bytes"
	"math/rand"
	"testing"

	"crossroads/pkg/crossroads"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

// TestBuiltinsRegistered proves importing the facade is enough to get every
// built-in policy.
func TestBuiltinsRegistered(t *testing.T) {
	got := map[string]bool{}
	for _, name := range crossroads.Policies() {
		got[name] = true
	}
	for _, want := range []string{"crossroads", "vt-im", "aim", "batch"} {
		if !got[want] {
			t.Errorf("built-in policy %q not registered via facade", want)
		}
	}
}

// TestRegisterAndBuildPolicy exercises the out-of-tree extension path: a
// scheduler registered through the facade must be constructible by name.
func TestRegisterAndBuildPolicy(t *testing.T) {
	called := false
	crossroads.RegisterPolicy("facade-test-null", crossroads.PolicyEntry{
		Factory: func(x *intersection.Intersection, opts crossroads.PolicyOptions, rng *rand.Rand) (crossroads.Scheduler, error) {
			called = true
			return crossroads.NewScheduler("crossroads", x, opts, rng)
		},
		Protocol: crossroads.ProtocolTimed,
	})
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := kinematics.ScaleModelParams()
	opts := crossroads.PolicyOptions{Spec: safety.TestbedSpec(), RefLength: ref.Length, RefWidth: ref.Width}
	sched, err := crossroads.NewScheduler("facade-test-null", x, opts, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !called || sched == nil {
		t.Fatal("registered factory was not used")
	}
}

// TestSimEntryPoint runs a tiny simulation purely through facade names.
func TestSimEntryPoint(t *testing.T) {
	arrivals, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := crossroads.NewSimConfig(
		crossroads.WithPolicy("crossroads"),
		crossroads.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crossroads.RunSim(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", res.Summary.Completed, len(arrivals))
	}
}

// TestRegisteredTimedPolicyRunsEverywhere registers a timed policy through
// the facade and runs it where the built-ins run: one simulation, and a
// topology sweep over a 2x2 grid. The run verdict charges it as timed: a
// run cut before its last arrivals charges their unspawned count to it,
// and not to vt-im.
func TestRegisteredTimedPolicyRunsEverywhere(t *testing.T) {
	const name = "facade-test-timed"
	crossroads.RegisterPolicy(name, crossroads.PolicyEntry{
		Factory: func(x *intersection.Intersection, opts crossroads.PolicyOptions, rng *rand.Rand) (crossroads.Scheduler, error) {
			return crossroads.NewScheduler("crossroads", x, opts, rng)
		},
		Protocol: crossroads.ProtocolTimed,
	})

	arrivals, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := crossroads.NewSimConfig(crossroads.WithPolicy(name), crossroads.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := crossroads.RunSim(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Summary; s.Completed != len(arrivals) || s.Collisions != 0 || s.BufferViolations != 0 || res.Incomplete != 0 {
		t.Errorf("sim: completed %d of %d, collisions %d, buffer violations %d, incomplete %d",
			s.Completed, len(arrivals), s.Collisions, s.BufferViolations, res.Incomplete)
	}

	grid, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := crossroads.RunTopologySweep(crossroads.TopoConfig{
		Topology:    grid,
		NumVehicles: 12,
		Policies:    []string{name},
		Seed:        7,
		ScaleModel:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := topo.Cell(0)
	if c.Summary.Completed != 12 || c.Summary.Collisions != 0 || c.Summary.BufferViolations != 0 || c.Incomplete != 0 {
		t.Errorf("grid: completed %d of 12, collisions %d, buffer violations %d, incomplete %d",
			c.Summary.Completed, c.Summary.Collisions, c.Summary.BufferViolations, c.Incomplete)
	}
	if v := topo.Violations(); v != 0 {
		t.Errorf("grid: %d violations in a clean run", v)
	}

	// Scenario 10 spawns a vehicle every 4 s from t=0 to t=16; a horizon
	// at t=10 leaves the last two unspawned.
	sparse, err := traffic.ScaleScenario(10, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{name, "vt-im"} {
		cfg, err := crossroads.NewSimConfig(crossroads.WithPolicy(pol), crossroads.WithSeed(7),
			crossroads.WithMaxSimTime(10))
		if err != nil {
			t.Fatal(err)
		}
		res, err := crossroads.RunSim(cfg, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Summary; s.Collisions != 0 || s.BufferViolations != 0 || res.Unspawned == 0 {
			t.Errorf("%s cut at t=10: collisions %d, buffer violations %d, unspawned %d; want 0, 0, > 0",
				pol, s.Collisions, s.BufferViolations, res.Unspawned)
		}
		if pol == name && res.Violations < res.Unspawned {
			t.Errorf("%s cut at t=10: %d violations, want at least its %d unspawned", pol, res.Violations, res.Unspawned)
		}
		if pol == "vt-im" && res.Violations != 0 {
			t.Errorf("vt-im cut at t=10: %d violations, want its %d unspawned counted but not charged",
				res.Violations, res.Unspawned)
		}
	}
}

// TestProtocolRoundTrip proves the re-exported codec is usable standalone.
func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := crossroads.NewFrameWriter(&buf)
	in := crossroads.Request{VehicleID: 42, Seq: 1, CurrentSpeed: 0.3, DistToEntry: 3.3,
		MaxSpeed: 3, MaxAccel: 3, MaxDecel: 3, Length: 0.568, Width: 0.296, Wheelbase: 0.335}
	if err := w.WriteFrame(in); err != nil {
		t.Fatal(err)
	}
	out, err := crossroads.NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out.(crossroads.Request); !ok || got != in {
		t.Fatalf("round trip mismatch: %#v", out)
	}
}
