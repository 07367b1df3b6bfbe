package crossroads_test

import (
	"bytes"
	"math/rand"
	"testing"

	"crossroads/pkg/crossroads"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
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
	crossroads.RegisterPolicy("facade-test-null", func(x *intersection.Intersection, opts crossroads.PolicyOptions, rng *rand.Rand) (crossroads.Scheduler, error) {
		called = true
		return crossroads.NewScheduler("crossroads", x, opts, rng)
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
		crossroads.WithPolicy(vehicle.PolicyCrossroads),
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
