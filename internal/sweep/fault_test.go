package sweep

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
)

// TestFaultMatrixAcceptance runs the full robustness matrix — every named
// scenario x all four policies x three seeds — and asserts the fault
// layer's acceptance bar: every cell passes the run verdict (no policy
// collides or violates a buffer), the coordinated policies (Crossroads,
// batch) strand no vehicle, and every vehicle either completes or ends in
// a failsafe stop.
func TestFaultMatrixAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full robustness matrix")
	}
	res, err := RunFaultMatrix(FaultMatrixConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) < 5 || res.Scenarios[0] != CleanScenario {
		t.Fatalf("scenarios = %v, want clean plus the named set", res.Scenarios)
	}
	if n := res.Violations(); n != 0 {
		t.Errorf("Violations() = %d, want 0\n%s", n, res.Table().String())
	}
	for si, scen := range res.Scenarios {
		for pi, p := range res.Policies {
			for wi, seed := range res.Seeds {
				c := res.Cell(si, pi, wi)
				if c.Incomplete != c.FailsafeStopped+c.Stranded {
					t.Errorf("%s/%s/seed=%d: incomplete=%d != failsafe=%d + stranded=%d",
						scen, p, seed, c.Incomplete, c.FailsafeStopped, c.Stranded)
				}
				if p != "crossroads" && p != "batch" {
					continue
				}
				if c.Stranded != 0 {
					t.Errorf("%s/%s/seed=%d: %d stranded vehicles", scen, p, seed, c.Stranded)
				}
			}
		}
	}
	// The clean baseline itself must be spotless and fully completed.
	for pi, pol := range res.Policies {
		for wi, seed := range res.Seeds {
			c := res.Cell(0, pi, wi)
			if c.Summary.Collisions != 0 || c.Summary.BufferViolations != 0 || c.Incomplete != 0 {
				t.Errorf("clean/%s/seed=%d not clean: %+v", pol, seed, c.Summary)
			}
		}
	}
}

// TestFaultSafetyViolations pins the matrix's share of the run verdict:
// Violations sums the cells' verdicts, and the gate names each failing
// cell by its "<scenario>/<policy>/seed=<seed>" label, the same cell that
// Cell indexes. The verdicts are set by hand as sim.violations fills them
// (TestViolationsRule pins that rule): a timed policy's failsafe stops
// count in the clean column and not under a scripted fault, and AIM is
// charged its collisions and buffer violations but not its stranded
// vehicles.
func TestFaultSafetyViolations(t *testing.T) {
	res, err := RunFaultMatrix(FaultMatrixConfig{
		Scenarios:   []string{"dup"},
		Policies:    []string{"crossroads", "aim"},
		Seeds:       []int64{1, 2},
		NumVehicles: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Violations(); n != 0 {
		t.Fatalf("Violations() = %d, want 0\n%s", n, res.Table().String())
	}
	set := func(label string, r sim.Result) {
		i := slices.Index(res.Labels, label)
		if i < 0 {
			t.Fatalf("no cell labelled %q in %v", label, res.Labels)
		}
		res.Results[i] = r
	}
	set("clean/crossroads/seed=2", sim.Result{Incomplete: 3, FailsafeStopped: 3, Violations: 3})
	set("dup/crossroads/seed=1", sim.Result{Incomplete: 4, FailsafeStopped: 4})
	set("dup/aim/seed=1", sim.Result{Summary: metrics.Summary{Collisions: 1, BufferViolations: 1},
		Incomplete: 2, Stranded: 2, Violations: 2})
	if got := res.Cell(1, 1, 0).Violations; got != 2 {
		t.Errorf("Cell(dup, aim, seed=1).Violations = %d, want 2", got)
	}
	if got, want := res.Violations(), 3+2; got != want {
		t.Errorf("Violations() = %d, want %d", got, want)
	}
	var out, errs strings.Builder
	if res.Gate(&out, &errs) {
		t.Error("gate passed a matrix with failing cells")
	}
	want := "FAIL clean/crossroads/seed=2: coll=0 bufviol=0 failsafe=3 stranded=0 unspawned=0 violations=3\n" +
		"FAIL dup/aim/seed=1: coll=1 bufviol=1 failsafe=0 stranded=2 unspawned=0 violations=2\n" +
		"FAIL: 5 violation(s) in 2 of 8 cells\n"
	if errs.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", errs.String(), want)
	}
}

// TestFaultMatrixDeterministicAcrossWorkers pins bit-identical results at
// any worker count: every cell derives its RNGs from its seed alone.
func TestFaultMatrixDeterministicAcrossWorkers(t *testing.T) {
	cfg := FaultMatrixConfig{
		Scenarios:   []string{"stall", "partition"},
		Policies:    []string{"crossroads", "batch"},
		Seeds:       []int64{1, 2},
		NumVehicles: 16,
	}
	cfg.Workers = 1
	serial, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	parallel, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simulated(serial.Runs), simulated(parallel.Runs)) {
		t.Errorf("matrix differs between 1 and 3 workers:\n%s\nvs\n%s",
			serial.Table().String(), parallel.Table().String())
	}
}

// TestFaultMatrixRejectsBadScenario checks spec resolution fails fast.
func TestFaultMatrixRejectsBadScenario(t *testing.T) {
	_, err := RunFaultMatrix(FaultMatrixConfig{Scenarios: []string{"no-such-fault"}})
	if err == nil || !strings.Contains(err.Error(), "no-such-fault") {
		t.Fatalf("want scenario-resolution error, got %v", err)
	}
}

// TestFaultMatrixTables smoke-checks the reporting surfaces.
func TestFaultMatrixTables(t *testing.T) {
	res, err := RunFaultMatrix(FaultMatrixConfig{
		Scenarios:   []string{"dup"},
		Policies:    []string{"crossroads"},
		Seeds:       []int64{1},
		NumVehicles: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := res.Table().String()
	if !strings.Contains(full, "dup") || !strings.Contains(full, CleanScenario) {
		t.Errorf("Table missing rows:\n%s", full)
	}
	sum := res.SummaryTable().String()
	if !strings.Contains(sum, "tput/clean") {
		t.Errorf("SummaryTable missing relative-throughput column:\n%s", sum)
	}
	if base := res.CleanThroughput(0, 0); base <= 0 {
		t.Errorf("CleanThroughput = %v, want > 0", base)
	}
}
