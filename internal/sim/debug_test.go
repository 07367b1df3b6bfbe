package sim

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
)

// TestDebugDump is a manual diagnostic, skipped unless CROSSROADS_DEBUG=1.
// It runs one configurable world with the collision dump enabled and lists
// any vehicles still active at the end. Knobs (env):
//
//	CROSSROADS_DEBUG_POLICY  registered policy name (default crossroads)
//	CROSSROADS_DEBUG_RATE    Poisson rate, car/lane/s (default 0.4)
//	CROSSROADS_DEBUG_N       fleet size (default 80)
//	CROSSROADS_DEBUG_SEED    seed (default 42)
//	CROSSROADS_DEBUG_FULL    1 = full-scale geometry (default scale model)
//	CROSSROADS_DEBUG_LANES   lanes per road (default 1)
func TestDebugDump(t *testing.T) {
	if os.Getenv("CROSSROADS_DEBUG") == "" {
		t.Skip("set CROSSROADS_DEBUG=1 to run")
	}
	envF := func(k string, def float64) float64 {
		if v := os.Getenv(k); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
		return def
	}
	policy := os.Getenv("CROSSROADS_DEBUG_POLICY")
	if policy == "" {
		policy = "crossroads"
	}
	rate := envF("CROSSROADS_DEBUG_RATE", 0.4)
	n := int(envF("CROSSROADS_DEBUG_N", 80))
	seed := int64(envF("CROSSROADS_DEBUG_SEED", 42))
	lanes := int(envF("CROSSROADS_DEBUG_LANES", 1))

	cfg := Config{Policy: policy, Seed: seed}
	params := kinematics.ScaleModelParams()
	if os.Getenv("CROSSROADS_DEBUG_FULL") == "1" {
		cfg.Intersection = intersection.FullScaleConfig()
		cfg.Spec = safety.FullScaleSpec()
		params = kinematics.FullScaleParams()
	}
	if lanes > 1 {
		if cfg.Intersection == (intersection.Config{}) {
			cfg.Intersection = intersection.ScaleModelConfig()
		}
		cfg.Intersection.LanesPerRoad = lanes
		cfg.Intersection.BoxSize = float64(2*lanes) * cfg.Intersection.LaneWidth * 1.15
	}

	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         rate,
		NumVehicles:  n,
		LanesPerRoad: lanes,
		Mix:          traffic.DefaultTurnMix(),
		Params:       params,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if lanes > 1 {
		for i := range arr {
			switch {
			case arr[i].Movement.Lane == 0 && arr[i].Movement.Turn == intersection.Right:
				arr[i].Movement.Turn = intersection.Straight
			case arr[i].Movement.Lane == lanes-1 && arr[i].Movement.Turn == intersection.Left:
				arr[i].Movement.Turn = intersection.Straight
			}
		}
	}

	w, err := newWorld(cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	w.debug = true
	res, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("=== %s rate=%.2f n=%d seed=%d lanes=%d: completed=%d collisions=%d bufviol=%d messages=%d\n",
		res.Policy, rate, n, seed, lanes,
		res.Summary.Completed, res.Summary.Collisions, res.Summary.BufferViolations, res.Summary.Messages)
	for _, v := range w.active {
		fmt.Printf("  stuck veh%d mv=%v state=%v s=%.2f v=%.2f retries=%d\n",
			v.arr.ID, v.arr.Movement, v.agent.State(), v.plant.S(), v.plant.V(), v.agent.Retries)
	}
}
