package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/traffic"
)

// ablationWorkload is a busy single-lane load where VT-IM scheduling is
// tight enough for RTD-induced position error to matter.
func ablationWorkload(t *testing.T, seed int64) []traffic.Arrival {
	t.Helper()
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         1.2,
		NumVehicles:  80,
		LanesPerRoad: 1,
		Mix:          traffic.DefaultTurnMix(),
		Params:       kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// adversarialRTD configures worst-case-but-in-spec delays: the network
// always takes its worst 15 ms one way and the IM its worst per-request
// compute — exactly the conditions the WC-RTD bound was measured under.
func adversarialRTD(cfg Config) Config {
	cfg.Delay = network.ConstantDelay{D: 0.015}
	cfg.Cost = im.CostModel{RequestBase: 0.033, PerReservation: 0.0003}
	return cfg
}

// TestAblationVTIMWithoutRTDBufferIsUnsafe reproduces the paper's central
// safety argument (Chapters 3-4): a velocity-transaction IM that does not
// buffer for the round-trip delay lets actual positions drift outside the
// planned footprints — sensing-buffered footprints of cross traffic
// overlap. With the RTD buffer (or with Crossroads' fixed execution time)
// the same workload stays violation-free.
func TestAblationVTIMWithoutRTDBufferIsUnsafe(t *testing.T) {
	violationsWithout := 0
	for seed := int64(1); seed <= 8; seed++ {
		arr := ablationWorkload(t, seed)
		res, err := Run(adversarialRTD(Config{
			Policy:        "vt-im",
			Seed:          seed,
			OmitRTDBuffer: true, // UNSAFE: the ablation under test
		}), arr)
		if err != nil {
			t.Fatal(err)
		}
		violationsWithout += res.Summary.BufferViolations + res.Summary.Collisions
	}
	if violationsWithout == 0 {
		t.Error("VT-IM without the RTD buffer showed no violations; the ablation no longer demonstrates the paper's claim")
	}

	// Control arms: the buffered VT-IM and Crossroads must be clean on the
	// same workloads.
	for _, pol := range []struct {
		policy string
		omit   bool
		name   string
	}{
		{"vt-im", false, "buffered VT-IM"},
		{"crossroads", false, "Crossroads"},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			arr := ablationWorkload(t, seed)
			res, err := Run(adversarialRTD(Config{
				Policy:        pol.policy,
				Seed:          seed,
				OmitRTDBuffer: pol.omit,
			}), arr)
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Summary.BufferViolations + res.Summary.Collisions; v != 0 {
				t.Errorf("%s seed %d: %d violations", pol.name, seed, v)
			}
		}
	}
}
