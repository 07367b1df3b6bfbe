package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/kinematics"
	"crossroads/internal/traffic"
)

// TestBatchPolicyEndToEnd runs the Tachet-style batching extension through
// the full closed loop: it must be safe and complete, and its wait times
// land between plain VT-IM's and Crossroads' (it gains from reordering but
// pays the re-organization window on every command).
func TestBatchPolicyEndToEnd(t *testing.T) {
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
	waits := map[string]float64{}
	for _, pol := range []string{"vt-im", "batch", "crossroads"} {
		res, err := Run(Config{Policy: pol, Seed: 5}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Completed != len(arr) {
			t.Errorf("%v: completed %d of %d", pol, res.Summary.Completed, len(arr))
		}
		if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
			t.Errorf("%v: col=%d buf=%d", pol, res.Summary.Collisions, res.Summary.BufferViolations)
		}
		waits[pol] = res.Summary.MeanWait
	}
	if !(waits["batch"] < waits["vt-im"]) {
		t.Errorf("batch wait %v not below VT-IM %v", waits["batch"], waits["vt-im"])
	}
	if !(waits["batch"] > waits["crossroads"]) {
		t.Errorf("batch wait %v not above Crossroads %v (no window cost?)",
			waits["batch"], waits["crossroads"])
	}
}
