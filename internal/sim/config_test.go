package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/kinematics"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// TestConfigValidate pins the contradictions Validate must reject and the
// defaults it must leave alone.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty means valid
	}{
		{"zero value", Config{}, "unknown policy \"\""},
		{"unregistered policy", Config{Policy: "nope"}, "unknown policy \"nope\""},
		{"vtim ablation", Config{Policy: "vt-im", OmitRTDBuffer: true}, ""},
		{"crossroads ablation", Config{Policy: "crossroads", OmitRTDBuffer: true}, "OmitRTDBuffer"},
		{"aim ablation", Config{Policy: "aim", OmitRTDBuffer: true}, "OmitRTDBuffer"},
		{"negative loss", Config{Policy: "crossroads", LossProb: -0.1}, "LossProb"},
		{"certain loss", Config{Policy: "crossroads", LossProb: 1.0}, "LossProb"},
		{"heavy but lawful loss", Config{Policy: "crossroads", LossProb: 0.5}, ""},
		{"negative dt", Config{Policy: "crossroads", PhysicsDt: -0.01}, "PhysicsDt"},
		{"negative max time", Config{Policy: "crossroads", MaxSimTime: -1}, "MaxSimTime"},
		{"negative clock offset", Config{Policy: "crossroads", ClockMaxOffset: -0.2}, "ClockMaxOffset"},
		{"negative drift", Config{Policy: "crossroads", ClockMaxDriftPPM: -20}, "ClockMaxDriftPPM"},
		{"des firehose without recorder", Config{Policy: "crossroads", TraceDES: true}, "TraceDES"},
		{"des firehose with recorder", Config{Policy: "crossroads", TraceDES: true, Trace: trace.NewFull()}, ""},
		{"negative fault duration",
			Config{Policy: "crossroads", Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Burst, Start: 1, Duration: -1}}}}, "duration"},
		{"fault loss prob above one",
			Config{Policy: "crossroads", Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Burst, Start: 1, Duration: 2, LossBad: 1.5}}}}, "lossbad"},
		{"overlapping fault windows",
			Config{Policy: "crossroads", Faults: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.Partition, Start: 1, Duration: 3},
				{Kind: fault.Partition, Start: 2, Duration: 3},
			}}}, "overlap"},
		{"stall node beyond topology",
			Config{Policy: "crossroads", Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Stall, Start: 1, Duration: 2, Node: 3}}}}, "stalls node 3"},
		{"lawful fault schedule",
			Config{Policy: "crossroads", Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Stall, Start: 1, Duration: 2}}}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigValidateRejectsNonFinite: NaN fails every comparison, so a
// range check written as "v < 0" lets it through, and an infinite step,
// horizon or period is no setting at all. Every float knob must be finite,
// and Run must refuse a NaN step rather than run it.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"LossProb", func(c *Config, v float64) { c.LossProb = v }},
		{"PhysicsDt", func(c *Config, v float64) { c.PhysicsDt = v }},
		{"MaxSimTime", func(c *Config, v float64) { c.MaxSimTime = v }},
		{"ClockMaxOffset", func(c *Config, v float64) { c.ClockMaxOffset = v }},
		{"ClockMaxDriftPPM", func(c *Config, v float64) { c.ClockMaxDriftPPM = v }},
		{"CoordPeriod", func(c *Config, v float64) { c.CoordPeriod = v }},
	}
	for _, k := range knobs {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{Policy: "crossroads", Coord: true}
			k.set(&cfg, v)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), k.name) {
				t.Errorf("%s=%v: err = %v, want one naming %s", k.name, v, err, k.name)
			}
		}
	}
	if _, err := Run(Config{Policy: "crossroads", PhysicsDt: math.NaN()}, singleArrival()); err == nil {
		t.Error("Run accepted PhysicsDt=NaN")
	}
}

// TestRunRejectsInvalidConfig checks the validation actually gates Run.
func TestRunRejectsInvalidConfig(t *testing.T) {
	arr := singleArrival()
	_, err := Run(Config{Policy: "crossroads", OmitRTDBuffer: true}, arr)
	if err == nil || !strings.Contains(err.Error(), "OmitRTDBuffer") {
		t.Fatalf("Run accepted a contradictory config (err=%v)", err)
	}
}

// TestRunRejectsArrivalsItCannotSimulate: Run starts its clock at the
// first arrival, sizes its horizon from the last and keeps one record per
// vehicle ID, so a fleet out of time order, or with an ID listed twice,
// is refused naming the offending arrival instead of run wrong.
func TestRunRejectsArrivalsItCannotSimulate(t *testing.T) {
	fleet := func() []traffic.Arrival {
		arr, err := traffic.Poisson(traffic.PoissonConfig{
			Rate: 0.4, NumVehicles: 16, LanesPerRoad: 1,
			Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
		}, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	cfg := Config{Policy: "crossroads", Seed: 3}
	run(t, cfg, fleet())

	swapped := fleet()
	last := len(swapped) - 1
	swapped[0], swapped[last] = swapped[last], swapped[0]
	_, err := Run(cfg, swapped)
	if want := fmt.Sprintf("arrival %d at t=", swapped[1].ID); err == nil ||
		!strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "time order") {
		t.Errorf("first and last arrivals swapped: err = %v, want one naming %q and time order", err, want)
	}

	dup := fleet()
	dup[5].ID = dup[2].ID
	_, err = Run(cfg, dup)
	if want := fmt.Sprintf("arrival %d: vehicle ID listed twice", dup[2].ID); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("duplicate ID: err = %v, want %q", err, want)
	}
}

// TestPolicyParamsReachEveryScheduler checks that Run hands PolicyParams to
// the running policy's scheduler on every node: out-of-range tuning fails
// scheduler construction, an unknown knob fails naming the knob, and
// lawful tuning runs under the policy it addresses.
func TestPolicyParamsReachEveryScheduler(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid22 = grid22.WithSegmentLen(0.8)
	cases := []struct {
		name    string
		policy  string
		topo    *topology.Topology
		params  map[string]string
		wantErr string // substring; empty means the run must succeed
	}{
		{"negative aim grid", "aim", nil, map[string]string{"aim.grid": "-4"}, "tile grid size -4"},
		{"negative aim step", "aim", nil, map[string]string{"aim.step": "-0.1"}, "TimeStep -0.1"},
		{"aim tuning on aim", "aim", nil, map[string]string{"aim.grid": "16", "aim.step": "0.05"}, ""},
		{"unknown dot knob on a grid", "dot", grid22, map[string]string{"dot.nosuchknob": "1"}, "dot.nosuchknob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := NewConfig(WithPolicy(tc.policy), WithTopology(tc.topo), WithPolicyParams(tc.params), WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			var arr []traffic.Arrival
			if tc.topo == nil {
				arr = singleArrival()
			} else {
				arr = topoWorkload(t, tc.topo, 4, 1)
			}
			res, err := Run(cfg, arr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Policy != tc.policy || res.Summary.Completed != len(arr) {
				t.Fatalf("ran policy %q, completed %d of %d; want %v completing all",
					res.Policy, res.Summary.Completed, len(arr), tc.policy)
			}
		})
	}
}
