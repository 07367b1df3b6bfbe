package sim

import (
	"strings"
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// TestConfigValidate pins the contradictions Validate must reject and the
// defaults it must leave alone.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty means valid
	}{
		{"zero value", Config{}, ""},
		{"vtim ablation", Config{Policy: vehicle.PolicyVTIM, OmitRTDBuffer: true}, ""},
		{"crossroads ablation", Config{Policy: vehicle.PolicyCrossroads, OmitRTDBuffer: true}, "OmitRTDBuffer"},
		{"aim ablation", Config{Policy: vehicle.PolicyAIM, OmitRTDBuffer: true}, "OmitRTDBuffer"},
		{"negative loss", Config{LossProb: -0.1}, "LossProb"},
		{"certain loss", Config{LossProb: 1.0}, "LossProb"},
		{"heavy but lawful loss", Config{LossProb: 0.5}, ""},
		{"negative dt", Config{PhysicsDt: -0.01}, "PhysicsDt"},
		{"negative max time", Config{MaxSimTime: -1}, "MaxSimTime"},
		{"negative clock offset", Config{ClockMaxOffset: -0.2}, "ClockMaxOffset"},
		{"negative drift", Config{ClockMaxDriftPPM: -20}, "ClockMaxDriftPPM"},
		{"negative collision stride", Config{CollisionEvery: -1}, "CollisionEvery"},
		{"des firehose without recorder", Config{TraceDES: true}, "TraceDES"},
		{"des firehose with recorder", Config{TraceDES: true, Trace: trace.NewFull()}, ""},
		{"backoff cap below first timeout",
			Config{AgentOverrides: &vehicle.Config{ResponseTimeout: 0.5, MaxTimeout: 0.2}}, "MaxTimeout"},
		{"backoff cap above first timeout",
			Config{AgentOverrides: &vehicle.Config{ResponseTimeout: 0.5, MaxTimeout: 2.0}}, ""},
		{"negative fault duration",
			Config{Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Burst, Start: 1, Duration: -1}}}}, "duration"},
		{"fault loss prob above one",
			Config{Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Burst, Start: 1, Duration: 2, LossBad: 1.5}}}}, "lossbad"},
		{"overlapping fault windows",
			Config{Faults: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.Partition, Start: 1, Duration: 3},
				{Kind: fault.Partition, Start: 2, Duration: 3},
			}}}, "overlap"},
		{"stall node beyond topology",
			Config{Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Stall, Start: 1, Duration: 2, Node: 3}}}}, "stalls node 3"},
		{"lawful fault schedule",
			Config{Faults: &fault.Schedule{Windows: []fault.Window{{Kind: fault.Stall, Start: 1, Duration: 2}}}}, ""},
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

// TestRunRejectsInvalidConfig checks the validation actually gates Run.
func TestRunRejectsInvalidConfig(t *testing.T) {
	arr := singleArrival()
	_, err := Run(Config{Policy: vehicle.PolicyCrossroads, OmitRTDBuffer: true}, arr)
	if err == nil || !strings.Contains(err.Error(), "OmitRTDBuffer") {
		t.Fatalf("Run accepted a contradictory config (err=%v)", err)
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
		policy  vehicle.Policy
		topo    *topology.Topology
		params  map[string]string
		wantErr string // substring; empty means the run must succeed
	}{
		{"negative aim grid", vehicle.PolicyAIM, nil, map[string]string{"aim.grid": "-4"}, "tile grid size -4"},
		{"negative aim step", vehicle.PolicyAIM, nil, map[string]string{"aim.step": "-0.1"}, "TimeStep -0.1"},
		{"aim tuning on aim", vehicle.PolicyAIM, nil, map[string]string{"aim.grid": "16", "aim.step": "0.05"}, ""},
		{"unknown dot knob on a grid", vehicle.PolicyDOT, grid22, map[string]string{"dot.nosuchknob": "1"}, "dot.nosuchknob"},
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
			if res.Policy != tc.policy.String() || res.Summary.Completed != len(arr) {
				t.Fatalf("ran policy %q, completed %d of %d; want %v completing all",
					res.Policy, res.Summary.Completed, len(arr), tc.policy)
			}
		})
	}
}
