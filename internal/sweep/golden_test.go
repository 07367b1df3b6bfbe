package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/topology"
)

// goldenCell is one experiment cell's exact-precision fingerprint: its run
// label and every simulated field the experiment's tables and gates read.
// Floats are serialized via strconv.FormatFloat(v, 'g', -1, 64), so any
// bit-level drift shows up as a string diff. The host-time SchedulerWall
// is left out.
type goldenCell struct {
	Label  string            `json:"label"`
	Fields map[string]string `json:"fields"`
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryFields fingerprints every simulated field of a metrics.Summary
// under prefix.
func summaryFields(into map[string]string, prefix string, s metrics.Summary) {
	for k, v := range map[string]string{
		"vehicles":         strconv.Itoa(s.Vehicles),
		"completed":        strconv.Itoa(s.Completed),
		"mean_wait":        f64(s.MeanWait),
		"max_wait":         f64(s.MaxWait),
		"p95_wait":         f64(s.P95Wait),
		"total_wait":       f64(s.TotalWait),
		"mean_travel":      f64(s.MeanTravel),
		"total_travel":     f64(s.TotalTravel),
		"throughput":       f64(s.Throughput),
		"delay_throughput": f64(s.DelayThroughput),
		"makespan":         f64(s.MakeSpan),
		"messages":         strconv.Itoa(s.Messages),
		"bytes":            strconv.Itoa(s.Bytes),
		"mean_retries":     f64(s.MeanRetries),
		"invocations":      strconv.Itoa(s.SchedulerInvocations),
		"sched_delay":      f64(s.SchedulerSimDelay),
		"collisions":       strconv.Itoa(s.Collisions),
		"bufviol":          strconv.Itoa(s.BufferViolations),
		"revisions":        strconv.Itoa(s.Revisions),
	} {
		into[prefix+k] = v
	}
}

// goldenRateSweep runs a noisy scale-model rate sweep with a -policy-opt
// knob in force and fingerprints every (rate, policy) cell plus the
// headline ratios.
func goldenRateSweep(t *testing.T) []goldenCell {
	res, err := Run(Config{
		Rates:        []float64{0.1, 0.6},
		NumVehicles:  12,
		Seed:         3,
		ScaleModel:   true,
		Noisy:        true,
		PolicyParams: map[string]string{"aim.grid": "8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenCell
	for i, c := range res.Results {
		out = append(out, goldenCell{
			Label: res.Labels[i],
			Fields: map[string]string{
				"throughput":   f64(c.Summary.Throughput),
				"mean_wait":    f64(c.Summary.MeanWait),
				"mean_travel":  f64(c.Summary.MeanTravel),
				"messages":     strconv.Itoa(c.Summary.Messages),
				"bytes":        strconv.Itoa(c.Summary.Bytes),
				"mean_retries": f64(c.Summary.MeanRetries),
				"sched_delay":  f64(c.Summary.SchedulerSimDelay),
				"invocations":  strconv.Itoa(c.Summary.SchedulerInvocations),
				"collisions":   strconv.Itoa(c.Summary.Collisions),
				"bufviol":      strconv.Itoa(c.Summary.BufferViolations),
				"incomplete":   strconv.Itoa(c.Incomplete),
				"failsafe":     strconv.Itoa(c.FailsafeStopped),
				"stranded":     strconv.Itoa(c.Stranded),
			},
		})
	}
	for _, other := range []string{"vt-im", "aim"} {
		worst, avg, err := res.Headline(other)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenCell{
			Label:  "headline/" + other,
			Fields: map[string]string{"worst": f64(worst), "avg": f64(avg)},
		})
	}
	return out
}

// goldenFaultMatrix runs two fault scenarios (plus the clean baseline)
// and fingerprints every (scenario, policy, seed) cell plus the gate.
func goldenFaultMatrix(t *testing.T) []goldenCell {
	res, err := RunFaultMatrix(FaultMatrixConfig{
		Scenarios:   []string{"stall", "partition"},
		Policies:    []string{"aim", "crossroads"},
		Seeds:       []int64{1},
		NumVehicles: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenCell
	for i, c := range res.Results {
		out = append(out, goldenCell{
			Label: res.Labels[i],
			Fields: map[string]string{
				"throughput": f64(c.Summary.Throughput),
				"mean_wait":  f64(c.Summary.MeanWait),
				"collisions": strconv.Itoa(c.Summary.Collisions),
				"bufviol":    strconv.Itoa(c.Summary.BufferViolations),
				"completed":  strconv.Itoa(c.Summary.Completed),
				"incomplete": strconv.Itoa(c.Incomplete),
				"failsafe":   strconv.Itoa(c.FailsafeStopped),
				"stranded":   strconv.Itoa(c.Stranded),
				"dropped":    strconv.Itoa(c.Network.Dropped),
				"duplicated": strconv.Itoa(c.Network.Duplicated),
			},
		})
	}
	out = append(out, goldenCell{
		Label:  "safety",
		Fields: map[string]string{"violations": strconv.Itoa(res.Violations())},
	})
	return out
}

// goldenTopology runs a noisy, coordinated 2x2 grid with a -policy-opt
// knob in force and fingerprints every policy's journey and per-node
// summaries plus the gate.
func goldenTopology(t *testing.T) []goldenCell {
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTopology(TopoConfig{
		Topology:     topo.WithSegmentLen(0.8),
		Rate:         0.3,
		NumVehicles:  12,
		Policies:     []string{"vt-im", "crossroads", "signalized"},
		Seed:         5,
		ScaleModel:   true,
		Noisy:        true,
		Coord:        true,
		PolicyParams: map[string]string{"signalized.green": "6"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenCell
	for i, c := range res.Results {
		fields := map[string]string{"incomplete": strconv.Itoa(c.Incomplete)}
		summaryFields(fields, "journey.", c.Summary)
		for k, s := range c.PerNode {
			summaryFields(fields, fmt.Sprintf("node%d.", k), s)
		}
		out = append(out, goldenCell{Label: res.Labels[i], Fields: fields})
	}
	out = append(out, goldenCell{
		Label:  "safety",
		Fields: map[string]string{"violations": strconv.Itoa(res.Violations())},
	})
	return out
}

// goldenScale runs the scale-model scenarios with two noisy repetitions
// and fingerprints every (scenario, policy) aggregate plus each policy's
// scenario average.
func goldenScale(t *testing.T) []goldenCell {
	res, err := RunScale(ScaleConfig{Repetitions: 2, Seed: 7, Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenCell
	for i := 0; i < len(res.Results); i += res.Repetitions {
		var delay, max float64
		var coll, inc int
		for _, c := range res.Results[i : i+res.Repetitions] {
			delay += c.Summary.MeanWait
			max += c.Summary.MaxWait
			coll += c.Summary.Collisions
			inc += c.Incomplete
		}
		scen, pi := i/res.Repetitions/len(res.Policies)+1, i/res.Repetitions%len(res.Policies)
		reps := float64(res.Repetitions)
		out = append(out, goldenCell{
			Label: res.Labels[i],
			Fields: map[string]string{
				"mean_wait":  f64(res.MeanWait(scen, pi)),
				"mean_delay": f64(delay / reps),
				"mean_max":   f64(max / reps),
				"collisions": strconv.Itoa(coll),
				"incomplete": strconv.Itoa(inc),
			},
		})
	}
	for pi, pol := range res.Policies {
		out = append(out, goldenCell{
			Label:  "average/" + pol,
			Fields: map[string]string{"wait": f64(res.AverageWait(pi))},
		})
	}
	return out
}

// TestGoldenExperiments pins the exact simulated outcome of one small
// configuration of each experiment — rate sweep, fault matrix, topology
// run, scale scenarios — cell by cell. Between them the configurations
// exercise every option the experiments share: a policy knob, plant noise,
// IM-to-IM coordination, fault scenarios, and repetitions. Regenerate the
// golden file only for an intentional behaviour change:
//
//	CROSSROADS_UPDATE_GOLDEN=1 go test ./internal/sweep -run TestGoldenExperiments
func TestGoldenExperiments(t *testing.T) {
	path := filepath.Join("testdata", "golden_experiments.json")
	got := map[string][]goldenCell{
		"rate":     goldenRateSweep(t),
		"faults":   goldenFaultMatrix(t),
		"topology": goldenTopology(t),
		"scale":    goldenScale(t),
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
	var want map[string][]goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for exp, wcells := range want {
		gcells := got[exp]
		if len(gcells) != len(wcells) {
			t.Errorf("%s: %d cells, golden %d", exp, len(gcells), len(wcells))
			continue
		}
		for i, w := range wcells {
			g := gcells[i]
			if g.Label != w.Label {
				t.Errorf("%s: cell %d label %q, golden %q", exp, i, g.Label, w.Label)
				continue
			}
			if len(g.Fields) != len(w.Fields) {
				t.Errorf("%s %s: %d fields, golden %d", exp, w.Label, len(g.Fields), len(w.Fields))
			}
			for k, v := range w.Fields {
				if g.Fields[k] != v {
					t.Errorf("%s %s: %s = %s, golden %s", exp, w.Label, k, g.Fields[k], v)
				}
			}
		}
	}
}
