package sim

import (
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/kinematics"
	"crossroads/internal/plant"
	"crossroads/internal/traffic"
)

// singleArrival returns one straight eastbound scale-model vehicle.
func singleArrival() []traffic.Arrival {
	a, _ := traffic.ScaleScenario(10, rand.New(rand.NewSource(1)))
	return a[:1]
}

func run(t *testing.T, cfg Config, arr []traffic.Arrival) Result {
	t.Helper()
	res, err := Run(cfg, arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleVehicleCrossesEveryPolicy(t *testing.T) {
	for _, pol := range []string{"vt-im", "crossroads", "aim"} {
		res := run(t, Config{Policy: pol, Seed: 1}, singleArrival())
		if res.Summary.Completed != 1 {
			t.Errorf("%v: completed = %d, want 1", pol, res.Summary.Completed)
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v: collisions = %d", pol, res.Summary.Collisions)
		}
		if res.Summary.BufferViolations != 0 {
			t.Errorf("%v: buffer violations = %d", pol, res.Summary.BufferViolations)
		}
		// A lone vehicle should cross with minimal wait (< 1 s).
		if res.Summary.MeanWait > 1.0 {
			t.Errorf("%v: lone-vehicle wait %v too high", pol, res.Summary.MeanWait)
		}
		if res.Incomplete != 0 {
			t.Errorf("%v: incomplete = %d", pol, res.Incomplete)
		}
	}
}

func TestWorstCaseScenarioAllPoliciesSafe(t *testing.T) {
	arr, _ := traffic.ScaleScenario(1, rand.New(rand.NewSource(2)))
	for _, pol := range []string{"vt-im", "crossroads", "aim"} {
		res := run(t, Config{Policy: pol, Seed: 2}, arr)
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v: completed %d of %d", pol, res.Summary.Completed, len(arr))
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v: physical collisions = %d", pol, res.Summary.Collisions)
		}
		if res.Summary.BufferViolations != 0 {
			t.Errorf("%v: buffer violations = %d", pol, res.Summary.BufferViolations)
		}
	}
}

func TestCrossroadsBeatsVTIMOnWorstCase(t *testing.T) {
	arr, _ := traffic.ScaleScenario(1, rand.New(rand.NewSource(3)))
	vt := run(t, Config{Policy: "vt-im", Seed: 3}, arr)
	cr := run(t, Config{Policy: "crossroads", Seed: 3}, arr)
	if cr.Summary.MeanWait >= vt.Summary.MeanWait {
		t.Errorf("Crossroads wait %v not better than VT-IM %v",
			cr.Summary.MeanWait, vt.Summary.MeanWait)
	}
}

func TestNoisyPlantsStillSafe(t *testing.T) {
	arr, _ := traffic.ScaleScenario(1, rand.New(rand.NewSource(4)))
	for _, pol := range []string{"vt-im", "crossroads"} {
		res := run(t, Config{Policy: pol, Seed: 4, Noise: plant.TestbedNoise()}, arr)
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v noisy: completed %d of %d", pol, res.Summary.Completed, len(arr))
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v noisy: collisions = %d", pol, res.Summary.Collisions)
		}
	}
}

func TestPoissonFlowModerate(t *testing.T) {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         0.3,
		NumVehicles:  30,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"vt-im", "crossroads", "aim"} {
		res := run(t, Config{Policy: pol, Seed: 5}, arr)
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v: completed %d of %d (incomplete=%d)",
				pol, res.Summary.Completed, len(arr), res.Incomplete)
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v: collisions = %d", pol, res.Summary.Collisions)
		}
		if res.Summary.BufferViolations != 0 {
			t.Errorf("%v: buffer violations = %d", pol, res.Summary.BufferViolations)
		}
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	_, err := Run(Config{Policy: "crossroads"}, nil)
	if err == nil || !strings.Contains(err.Error(), "empty workload") {
		t.Errorf("empty workload: err = %v, want the empty-workload error", err)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	arr, _ := traffic.ScaleScenario(3, rand.New(rand.NewSource(6)))
	r1 := run(t, Config{Policy: "crossroads", Seed: 6}, arr)
	r2 := run(t, Config{Policy: "crossroads", Seed: 6}, arr)
	if r1.Summary.MeanWait != r2.Summary.MeanWait || r1.Summary.Messages != r2.Summary.Messages {
		t.Errorf("same seed diverged: %+v vs %+v", r1.Summary, r2.Summary)
	}
}
