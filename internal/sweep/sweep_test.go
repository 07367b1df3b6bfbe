package sweep

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
)

func smallSweep(t *testing.T) Result {
	t.Helper()
	res, err := Run(Config{
		Rates:       []float64{0.1, 0.8},
		NumVehicles: 24,
		Seed:        11,
		ScaleModel:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulated returns the runs' results with the host-time SchedulerWall
// zeroed, leaving only simulation output to compare across worker counts.
func simulated(r Runs) []sim.Result {
	out := make([]sim.Result, len(r.Results))
	for i, c := range r.Results {
		c.Summary.SchedulerWall = 0
		c.PerNode = append([]metrics.Summary(nil), c.PerNode...)
		for k := range c.PerNode {
			c.PerNode[k].SchedulerWall = 0
		}
		out[i] = c
	}
	return out
}

func TestSweepShape(t *testing.T) {
	res := smallSweep(t)
	if len(res.Results) != 6 {
		t.Fatalf("cells = %d", len(res.Results))
	}
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %d", len(res.Policies))
	}
	for ri, rate := range res.Rates {
		for pi, pol := range res.Policies {
			c := res.Cell(ri, pi)
			if c.Summary.Collisions != 0 {
				t.Errorf("%s @ %v: %d collisions", pol, rate, c.Summary.Collisions)
			}
			if c.Incomplete != 0 {
				t.Errorf("%s @ %v: %d incomplete", pol, rate, c.Incomplete)
			}
			if c.Summary.Throughput <= 0 {
				t.Errorf("%s @ %v: throughput %v", pol, rate, c.Summary.Throughput)
			}
		}
	}
}

func TestSweepCrossroadsWinsUnderLoad(t *testing.T) {
	res := smallSweep(t)
	byName := map[string]metrics.Summary{}
	for pi, pol := range res.Policies {
		byName[pol] = res.Cell(1, pi).Summary // rate 0.8
	}
	cr := byName["crossroads"]
	if cr.Throughput <= byName["vt-im"].Throughput {
		t.Errorf("Crossroads %v not above VT-IM %v at heavy load",
			cr.Throughput, byName["vt-im"].Throughput)
	}
	if cr.Throughput <= byName["aim"].Throughput {
		t.Errorf("Crossroads %v not above AIM %v at heavy load",
			cr.Throughput, byName["aim"].Throughput)
	}
}

func TestSweepHeadline(t *testing.T) {
	res := smallSweep(t)
	worst, avg, err := res.Headline("vt-im")
	if err != nil {
		t.Fatal(err)
	}
	if !(worst >= avg && avg > 1) {
		t.Errorf("headline vs VT-IM: worst %v avg %v", worst, avg)
	}
	if _, _, err := res.Headline("nonexistent"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSweepTables(t *testing.T) {
	res := smallSweep(t)
	tp := res.ThroughputTable().String()
	for _, want := range []string{"rate", "vt-im", "aim", "crossroads"} {
		if !strings.Contains(tp, want) {
			t.Errorf("throughput table missing %q", want)
		}
	}
	ov := res.OverheadTable().String()
	for _, want := range []string{"messages", "IM calls", "retries/veh", "unspawned", "violations"} {
		if !strings.Contains(ov, want) {
			t.Errorf("overhead table missing %q", want)
		}
	}
}

// TestGateNamesFailingCells hands the gate three cells, one of them
// failing: it must name exactly that cell with its counts on stderr, print
// no PASS line, and fail; with the cell cleared it must print one PASS
// line and nothing on stderr.
func TestGateNamesFailingCells(t *testing.T) {
	r := Runs{
		Labels: []string{"rate=0.1/vt-im", "rate=0.4/crossroads", "rate=0.4/dot"},
		Results: []sim.Result{
			{Summary: metrics.Summary{Collisions: 0}},
			{Summary: metrics.Summary{Collisions: 1, BufferViolations: 2},
				FailsafeStopped: 3, Stranded: 4, Unspawned: 5, Violations: 15},
			{Incomplete: 1, FailsafeStopped: 1, Unspawned: 2},
		},
	}
	var out, errs strings.Builder
	if r.Gate(&out, &errs) {
		t.Error("gate passed a failing cell")
	}
	want := "FAIL rate=0.4/crossroads: coll=1 bufviol=2 failsafe=3 stranded=4 unspawned=5 violations=15\n" +
		"FAIL: 15 violation(s) in 1 of 3 cells\n"
	if errs.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", errs.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("stdout of a failing gate: %q", out.String())
	}

	r.Results[1] = sim.Result{}
	out.Reset()
	errs.Reset()
	if !r.Gate(&out, &errs) {
		t.Error("gate failed clean cells")
	}
	if got := out.String(); got != "\nPASS: 0 violations in 3 cells\n" {
		t.Errorf("stdout: %q", got)
	}
	if errs.Len() != 0 {
		t.Errorf("stderr of a passing gate: %q", errs.String())
	}
}

func TestSweepAIMMessageOverhead(t *testing.T) {
	res := smallSweep(t)
	byName := map[string]metrics.Summary{}
	for pi, pol := range res.Policies {
		byName[pol] = res.Cell(1, pi).Summary
	}
	// AIM's reject loop must cost it more messages and IM busy time than
	// Crossroads under load (the paper's overhead comparison).
	if byName["aim"].Messages <= byName["crossroads"].Messages {
		t.Errorf("AIM messages %d not above Crossroads %d",
			byName["aim"].Messages, byName["crossroads"].Messages)
	}
	if byName["aim"].SchedulerSimDelay <= byName["crossroads"].SchedulerSimDelay {
		t.Errorf("AIM IM busy %v not above Crossroads %v",
			byName["aim"].SchedulerSimDelay, byName["crossroads"].SchedulerSimDelay)
	}
}

func TestSweepCustomPolicies(t *testing.T) {
	res, err := Run(Config{
		Rates:       []float64{0.2},
		NumVehicles: 10,
		Seed:        3,
		ScaleModel:  true,
		Policies:    []string{"crossroads"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Cell(0, 0).Policy != "crossroads" {
		t.Errorf("custom policies not honored: %v", res.Labels)
	}
}

func TestPaperRates(t *testing.T) {
	r := PaperRates()
	if r[0] != 0.05 || r[len(r)-1] != 1.25 {
		t.Errorf("paper rates = %v", r)
	}
}

func TestHeadlineEmptyCells(t *testing.T) {
	// A zero-value Result (no cells yet) must return an error, not panic.
	var r Result
	if _, _, err := r.Headline("vt-im"); err == nil {
		t.Error("empty Result accepted")
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	cfg := Config{
		Rates:       []float64{0.1, 0.6},
		NumVehicles: 16,
		Seed:        5,
		ScaleModel:  true,
	}
	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simulated(serial.Runs), simulated(par.Runs)) {
		t.Errorf("parallel sweep diverged from serial:\nserial:\n%s\nparallel:\n%s",
			serial.ThroughputTable(), par.ThroughputTable())
	}
}
