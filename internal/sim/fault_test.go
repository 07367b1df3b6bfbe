package sim

// Closed-loop fault-injection tests: graceful degradation under a total
// partition, full recovery after an IM stall, and the deep-oversaturation
// AIM tail regression.

import (
	"math/rand"
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

func faultWorkload(t *testing.T, n int, seed int64) []traffic.Arrival {
	t.Helper()
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 0.4, NumVehicles: n, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestTotalPartitionFailsafe cuts every vehicle off from the IM for the
// whole run: nobody can be granted, so every vehicle must end standing in a
// failsafe stop short of the box — no collisions, nobody stranded mid-
// intersection, and the trace must show the fault window and the failsafes.
func TestTotalPartitionFailsafe(t *testing.T) {
	arr := faultWorkload(t, 12, 1)
	rec := trace.NewFull()
	res, err := Run(Config{
		Policy: "crossroads",
		Seed:   1,
		Faults: &fault.Schedule{Windows: []fault.Window{
			{Kind: fault.Partition, Start: 0, Duration: 1e6, From: "veh*", To: "im*"},
		}},
		MaxSimTime: 60,
		Trace:      rec,
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Collisions != 0 {
		t.Errorf("collisions = %d under total partition", res.Summary.Collisions)
	}
	if res.Incomplete != len(arr) {
		t.Errorf("Incomplete = %d, want all %d (nobody can be granted)", res.Incomplete, len(arr))
	}
	if res.FailsafeStopped != res.Incomplete {
		t.Errorf("FailsafeStopped = %d of %d incomplete: the rest did not degrade gracefully",
			res.FailsafeStopped, res.Incomplete)
	}
	if res.Stranded != 0 {
		t.Errorf("Stranded = %d, want 0", res.Stranded)
	}
	var sawBegin, sawFailsafe bool
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindFaultBegin:
			sawBegin = true
		case trace.KindVehFailsafe:
			sawFailsafe = true
		}
	}
	if !sawBegin {
		t.Error("trace missing fault.begin")
	}
	if !sawFailsafe {
		t.Error("trace missing veh.failsafe")
	}
}

// TestStallRecovery freezes the IM mid-rush; after recovery the buffered
// queue drains and the whole fleet must still complete with zero safety
// events.
func TestStallRecovery(t *testing.T) {
	arr := faultWorkload(t, 20, 2)
	for _, pol := range []string{"crossroads", "batch"} {
		res, err := Run(Config{
			Policy: pol,
			Seed:   2,
			Faults: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.Stall, Start: 4, Duration: 4, Node: 0},
			}},
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
			t.Errorf("%v: coll=%d buf=%d after stall recovery",
				pol, res.Summary.Collisions, res.Summary.BufferViolations)
		}
		if res.Incomplete != 0 {
			t.Errorf("%v: %d vehicles never completed after the stall healed", pol, res.Incomplete)
		}
	}
}

// TestFaultsOffIsByteIdenticalToNil pins that an empty (but non-nil)
// schedule still runs and that a nil schedule matches the pre-fault
// behavior exactly — the golden trace test covers the byte-level contract;
// this covers the summary-level one cheaply across policies.
func TestFaultsOffIsByteIdenticalToNil(t *testing.T) {
	arr := faultWorkload(t, 10, 3)
	clean, err := Run(Config{Policy: "crossroads", Seed: 3}, arr)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(Config{Policy: "crossroads", Seed: 3}, arr)
	if err != nil {
		t.Fatal(err)
	}
	// SchedulerWall is real wall-clock time and legitimately varies.
	clean.Summary.SchedulerWall = 0
	again.Summary.SchedulerWall = 0
	if clean.Summary != again.Summary {
		t.Errorf("identical configs diverge: %+v vs %+v", clean.Summary, again.Summary)
	}
}

// TestAIMDeepOversaturationTail is the grazing-tail regression: at rate 1.0
// with 80 full-scale vehicles AIM's yes/no protocol historically keeps rare
// grazes (the paper's QB-IM criticism) — the bound is <= 1 collision per
// seed and a fully completed fleet. A regression above that bound means the
// stale-response or confirm logic broke.
func TestAIMDeepOversaturationTail(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-oversaturation sweep")
	}
	params := kinematics.FullScaleParams()
	for seed := int64(1); seed <= 3; seed++ {
		arr, err := traffic.Poisson(traffic.PoissonConfig{
			Rate: 1.0, NumVehicles: 80, LanesPerRoad: 1,
			Mix: traffic.DefaultTurnMix(), Params: params,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Policy:       "aim",
			Seed:         seed,
			Intersection: intersection.FullScaleConfig(),
			Spec:         safety.FullScaleSpec(),
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions > 1 {
			t.Errorf("seed %d: AIM collisions = %d, tail bound is 1", seed, res.Summary.Collisions)
		}
		if res.Incomplete != 0 {
			t.Errorf("seed %d: %d vehicles incomplete", seed, res.Incomplete)
		}
	}
}
