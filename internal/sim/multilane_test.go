package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
)

// TestTwoLaneIntersection exercises the scalability extension: a two-lane-
// per-road full-scale intersection under all velocity-transaction policies.
// Lanes double the entry capacity; safety must hold across the extra
// conflict pairs (24 movements instead of 12).
func TestTwoLaneIntersection(t *testing.T) {
	cfg := intersection.FullScaleConfig()
	cfg.LanesPerRoad = 2
	cfg.BoxSize = 16 // four 3.5 m lanes per road need a wider box

	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         0.3,
		NumVehicles:  60,
		LanesPerRoad: 2,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.FullScaleParams(),
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Outer lanes cannot turn left across the inner lane and inner lanes
	// cannot turn right across the outer one in this geometry (turns keep
	// their lane index); assign turns accordingly.
	for i := range arr {
		switch {
		case arr[i].Movement.Lane == 0 && arr[i].Movement.Turn == intersection.Right:
			arr[i].Movement.Turn = intersection.Straight
		case arr[i].Movement.Lane == 1 && arr[i].Movement.Turn == intersection.Left:
			arr[i].Movement.Turn = intersection.Straight
		}
	}

	for _, pol := range []string{"vt-im", "crossroads"} {
		res, err := Run(Config{
			Policy:       pol,
			Seed:         9,
			Intersection: cfg,
			Spec:         safety.FullScaleSpec(),
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v: completed %d of %d", pol, res.Summary.Completed, len(arr))
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v: %d collisions", pol, res.Summary.Collisions)
		}
		if res.Summary.BufferViolations != 0 {
			t.Errorf("%v: %d buffer violations", pol, res.Summary.BufferViolations)
		}
	}
}

// TestTwoLaneBeatsSingleLane verifies the extra lane actually buys
// capacity: the same demand split over two lanes waits less than crammed
// into one.
func TestTwoLaneBeatsSingleLane(t *testing.T) {
	two := intersection.FullScaleConfig()
	two.LanesPerRoad = 2
	two.BoxSize = 16

	run := func(interCfg intersection.Config, lanes int, rate float64) float64 {
		arr, err := traffic.Poisson(traffic.PoissonConfig{
			Rate:         rate,
			NumVehicles:  60,
			LanesPerRoad: lanes,
			Mix:          traffic.TurnMix{Straight: 1},
			Params:       kinematics.FullScaleParams(),
		}, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Policy:       "crossroads",
			Seed:         4,
			Intersection: interCfg,
			Spec:         safety.FullScaleSpec(),
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
			t.Fatalf("unsafe run: col=%d buf=%d", res.Summary.Collisions, res.Summary.BufferViolations)
		}
		return res.Summary.MeanWait
	}
	// Same total demand: 0.8 veh/s/road split over 1 vs 2 lanes.
	oneLaneWait := run(intersection.FullScaleConfig(), 1, 0.8)
	twoLaneWait := run(two, 2, 0.4)
	if twoLaneWait >= oneLaneWait {
		t.Errorf("two lanes (%v s) not faster than one (%v s)", twoLaneWait, oneLaneWait)
	}
}

// TestMessageLossRobustness injects heavy message loss: retransmissions
// with backoff must carry every vehicle through, safely, under all
// policies.
func TestMessageLossRobustness(t *testing.T) {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         0.25,
		NumVehicles:  25,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"vt-im", "crossroads", "aim"} {
		res, err := Run(Config{
			Policy:   pol,
			Seed:     13,
			LossProb: 0.10, // one in ten messages vanishes
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v under loss: completed %d of %d", pol, res.Summary.Completed, len(arr))
		}
		if res.Summary.Collisions != 0 {
			t.Errorf("%v under loss: %d collisions", pol, res.Summary.Collisions)
		}
		if res.Network.Dropped == 0 {
			t.Errorf("%v: loss injection inactive", pol)
		}
		// Losses must show up as protocol retries, not silent hangs.
		if res.Summary.MeanRetries == 0 && pol != "aim" {
			t.Errorf("%v under loss: no retransmissions recorded", pol)
		}
	}
}

// TestClockDriftRobustness pushes clock offsets and drift well past the
// defaults: NTP still bounds the residual and Crossroads' timing contract
// holds.
func TestClockDriftRobustness(t *testing.T) {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         0.3,
		NumVehicles:  20,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Policy:           "crossroads",
		Seed:             17,
		ClockMaxOffset:   5.0, // five seconds of raw offset
		ClockMaxDriftPPM: 200,
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != len(arr) {
		t.Errorf("completed %d of %d", res.Summary.Completed, len(arr))
	}
	if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
		t.Errorf("col=%d buf=%d under extreme clocks",
			res.Summary.Collisions, res.Summary.BufferViolations)
	}
}

// TestCustomNetworkDelay runs with a slow, jittery network still within
// the provisioned WC-RTD: Crossroads absorbs it by construction.
func TestCustomNetworkDelay(t *testing.T) {
	arr, _ := traffic.ScaleScenario(1, rand.New(rand.NewSource(3)))
	res, err := Run(Config{
		Policy: "crossroads",
		Seed:   3,
		Delay:  network.UniformDelay{Min: 0.005, Max: 0.015},
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != len(arr) || res.Summary.Collisions != 0 {
		t.Errorf("completed=%d collisions=%d", res.Summary.Completed, res.Summary.Collisions)
	}
}
