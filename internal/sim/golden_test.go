package sim

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

// goldenCase is one pinned run. The golden file was generated against the
// pre-topology world (one hardwired intersection); the refactored engine
// must reproduce it bit-for-bit when the topology is the implicit Single()
// default. Later entries add a routed grid and a two-lane mixed fleet.
type goldenCase struct {
	Name     string
	Policy   string
	Seed     int64
	Noisy    bool
	LossProb float64
	Scenario int     // >0: scale scenario; 0: Poisson
	Rate     float64 // Poisson rate when Scenario == 0
	Vehicles int     // Poisson fleet when Scenario == 0
	// FullScale runs the full-scale geometry, vehicles and bounds instead
	// of the 1/10-scale testbed (Poisson only).
	FullScale bool
	// Params carries -policy-opt knobs ("<policy>.<knob>" keys).
	Params map[string]string
	// Grid > 0 runs routed journeys over a Grid x Grid topology with
	// SegLen metres between nodes, with the coordination plane on when
	// Coord is set (Poisson only).
	Grid   int
	SegLen float64
	Coord  bool
	// Lanes > 1 widens every road to that many lanes (full scale only);
	// turns keep their lane index, so outer lanes go straight instead of
	// turning right, and inner lanes straight instead of left.
	Lanes int
	// Trucks makes every fourth vehicle a straight-through truck.
	Trucks bool
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{Name: "scenario1-crossroads-noisy", Policy: "crossroads", Seed: 11, Noisy: true, Scenario: 1},
		{Name: "scenario4-vtim-noisy", Policy: "vt-im", Seed: 5, Noisy: true, Scenario: 4},
		{Name: "poisson-aim-lossy", Policy: "aim", Seed: 9, LossProb: 0.02, Rate: 0.6, Vehicles: 24},
		{Name: "poisson-batch", Policy: "batch", Seed: 3, Rate: 0.4, Vehicles: 16},
		{Name: "poisson-dot", Policy: "dot", Seed: 4, Rate: 0.3, Vehicles: 24},
		{Name: "poisson-dot-grid12", Policy: "dot", Seed: 8, Rate: 0.4, Vehicles: 24, Params: map[string]string{"dot.grid": "12"}},
		{Name: "fullscale-dot-noisy", Policy: "dot", Seed: 42, Noisy: true, Rate: 0.5, Vehicles: 24, FullScale: true},
		{Name: "grid3x3-crossroads-coord", Policy: "crossroads", Seed: 21, Rate: 0.4, Vehicles: 40, Grid: 3, SegLen: 0.8, Coord: true},
		{Name: "fullscale-twolane-mixed", Policy: "crossroads", Seed: 9, Rate: 0.3, Vehicles: 48, FullScale: true, Lanes: 2, Trucks: true},
	}
}

// goldenRecord is the exact-precision fingerprint of one run. Floats are
// serialized via strconv.FormatFloat(v, 'g', -1, 64), so any bit-level
// drift in the simulation shows up as a string diff.
type goldenRecord struct {
	Policy     string            `json:"policy"`
	Summary    map[string]string `json:"summary"`
	Network    map[string]string `json:"network"`
	ExitTimes  []string          `json:"exit_times"`
	Incomplete int               `json:"incomplete"`
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldenTruck is the mixed fleets' truck.
var goldenTruck = kinematics.Params{MaxSpeed: 12, MaxAccel: 1.5, MaxDecel: 3.5, Length: 12, Width: 2.5, Wheelbase: 6.5}

// goldenRun builds gc's config and arrivals.
func goldenRun(t testing.TB, gc goldenCase) (Config, []traffic.Arrival) {
	t.Helper()
	var arrivals []traffic.Arrival
	var err error
	params := kinematics.ScaleModelParams()
	if gc.FullScale {
		params = kinematics.FullScaleParams()
	}
	lanes := max(gc.Lanes, 1)
	cfg := Config{Policy: gc.Policy, Seed: gc.Seed, LossProb: gc.LossProb, PolicyParams: gc.Params, Coord: gc.Coord}
	if gc.Grid > 0 {
		g, err := topology.Grid(gc.Grid, gc.Grid)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = g.WithSegmentLen(gc.SegLen)
	}
	if gc.Scenario > 0 {
		arrivals, err = traffic.ScaleScenario(gc.Scenario, rand.New(rand.NewSource(gc.Seed)))
	} else {
		pc := traffic.PoissonConfig{
			Rate:         gc.Rate,
			NumVehicles:  gc.Vehicles,
			LanesPerRoad: lanes,
			Mix:          traffic.DefaultTurnMix(),
			Params:       params,
		}
		if cfg.Topology != nil {
			arrivals, err = traffic.PoissonRoutes(pc, cfg.Topology, 0, rand.New(rand.NewSource(gc.Seed)))
		} else {
			arrivals, err = traffic.Poisson(pc, rand.New(rand.NewSource(gc.Seed)))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range arrivals {
		m := &arrivals[i].Movement
		if lanes > 1 && (m.Lane == 0 && m.Turn == intersection.Right || m.Lane == lanes-1 && m.Turn == intersection.Left) {
			m.Turn = intersection.Straight
		}
		if gc.Trucks && i%4 == 3 {
			arrivals[i].Params = goldenTruck
			arrivals[i].Speed = goldenTruck.MaxSpeed
			m.Turn = intersection.Straight
		}
	}
	if gc.FullScale {
		cfg.Intersection = intersection.FullScaleConfig()
		cfg.Spec = safety.FullScaleSpec()
		if lanes > 1 {
			cfg.Intersection.LanesPerRoad = lanes
			cfg.Intersection.BoxSize = 16 // four 3.5 m lanes per road need a wider box
		}
	}
	if gc.Noisy {
		cfg.Noise = plant.TestbedNoise()
	}
	return cfg, arrivals
}

func runGoldenCase(t *testing.T, gc goldenCase) goldenRecord {
	t.Helper()
	cfg, arrivals := goldenRun(t, gc)
	res, err := Run(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	rec := goldenRecord{
		Policy: res.Policy,
		Summary: map[string]string{
			"mean_wait":   f64(res.Summary.MeanWait),
			"max_wait":    f64(res.Summary.MaxWait),
			"mean_travel": f64(res.Summary.MeanTravel),
			"throughput":  f64(res.Summary.Throughput),
			"makespan":    f64(res.Summary.MakeSpan),
			"sched_delay": f64(res.Summary.SchedulerSimDelay),
			"completed":   strconv.Itoa(res.Summary.Completed),
			"messages":    strconv.Itoa(res.Summary.Messages),
			"bytes":       strconv.Itoa(res.Summary.Bytes),
			"collisions":  strconv.Itoa(res.Summary.Collisions),
			"bufviol":     strconv.Itoa(res.Summary.BufferViolations),
			"revisions":   strconv.Itoa(res.Summary.Revisions),
			"invocations": strconv.Itoa(res.Summary.SchedulerInvocations),
		},
		Network: map[string]string{
			"sent":          strconv.Itoa(res.Network.Sent),
			"delivered":     strconv.Itoa(res.Network.Delivered),
			"dropped":       strconv.Itoa(res.Network.Dropped),
			"undeliverable": strconv.Itoa(res.Network.Undeliverable),
			"total_delay":   f64(res.Network.TotalDelay),
			"max_delay":     f64(res.Network.MaxDelay),
		},
		Incomplete: res.Incomplete,
	}
	for _, v := range res.Vehicles {
		rec.ExitTimes = append(rec.ExitTimes, f64(v.ExitTime))
	}
	return rec
}

// TestGoldenSingleIntersection pins the whole single-intersection stack —
// kinematics, plants, network sampling, IM scheduling, metrics — to the
// exact results of the pre-topology engine. Regenerate the golden file
// only for an intentional behavior change:
//
//	CROSSROADS_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenSingleIntersection
func TestGoldenSingleIntersection(t *testing.T) {
	path := filepath.Join("testdata", "golden_single.json")
	got := make(map[string]goldenRecord, len(goldenCases()))
	for _, gc := range goldenCases() {
		got[gc.Name] = runGoldenCase(t, gc)
	}
	if os.Getenv("CROSSROADS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with CROSSROADS_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden case %q no longer produced", name)
			continue
		}
		for k, v := range w.Summary {
			if g.Summary[k] != v {
				t.Errorf("%s: summary %s = %s, golden %s", name, k, g.Summary[k], v)
			}
		}
		for k, v := range w.Network {
			if g.Network[k] != v {
				t.Errorf("%s: network %s = %s, golden %s", name, k, g.Network[k], v)
			}
		}
		if len(g.ExitTimes) != len(w.ExitTimes) {
			t.Errorf("%s: %d exit times, golden %d", name, len(g.ExitTimes), len(w.ExitTimes))
		} else {
			for i := range w.ExitTimes {
				if g.ExitTimes[i] != w.ExitTimes[i] {
					t.Errorf("%s: vehicle %d exit %s, golden %s", name, i, g.ExitTimes[i], w.ExitTimes[i])
					break
				}
			}
		}
		if g.Incomplete != w.Incomplete {
			t.Errorf("%s: incomplete %d, golden %d", name, g.Incomplete, w.Incomplete)
		}
	}
}
