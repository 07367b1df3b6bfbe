package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/traffic"
)

func TestObserverSnapshots(t *testing.T) {
	arr, _ := traffic.ScaleScenario(1, rand.New(rand.NewSource(1)))
	snapshots := 0
	maxVehicles := 0
	var lastNow float64
	res, err := Run(Config{
		Policy:        "crossroads",
		Seed:          1,
		ObserverEvery: 5,
		Observer: func(now float64, vs []VehicleView) {
			snapshots++
			if now < lastNow {
				t.Errorf("observer time went backward: %v after %v", now, lastNow)
			}
			lastNow = now
			if len(vs) > maxVehicles {
				maxVehicles = len(vs)
			}
			for _, v := range vs {
				if v.ID <= 0 || v.State == "" {
					t.Errorf("malformed view: %+v", v)
				}
				if v.Speed < 0 {
					t.Errorf("negative speed in view: %+v", v)
				}
			}
		},
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != len(arr) {
		t.Fatalf("completed %d", res.Summary.Completed)
	}
	if snapshots == 0 {
		t.Fatal("observer never called")
	}
	if maxVehicles != len(arr) {
		t.Errorf("max simultaneous vehicles seen = %d, want %d", maxVehicles, len(arr))
	}
}
