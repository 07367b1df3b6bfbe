package sweep

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/metrics"
	"crossroads/internal/sim"
)

// TestFaultMatrixAcceptance runs the full robustness matrix — every named
// scenario x all four policies x three seeds — and asserts the fault
// layer's acceptance bar: the coordinated policies (Crossroads, batch) keep
// zero collisions, zero buffer violations, and zero stranded vehicles in
// every cell, and every vehicle either completes or ends in a failsafe
// stop.
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
	if n := res.SafetyViolations(); n != 0 {
		t.Errorf("SafetyViolations() = %d, want 0\n%s", n, res.Table().String())
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

// TestFaultSafetyViolations pins the matrix's safety gate on hand-built
// cells: timed policies are charged collisions, buffer violations, and
// stranded vehicles, but not failsafe stops; VT-IM and AIM are not
// charged at all.
func TestFaultSafetyViolations(t *testing.T) {
	cell := func(coll, buf, failsafe, stranded int) sim.Result {
		return sim.Result{
			Summary:         metrics.Summary{Collisions: coll, BufferViolations: buf},
			Incomplete:      failsafe + stranded,
			FailsafeStopped: failsafe,
			Stranded:        stranded,
		}
	}
	// Two scenarios x three policies x one seed, in cell order.
	r := FaultMatrixResult{
		Runs: Runs{Results: []sim.Result{
			cell(0, 0, 0, 0), cell(1, 1, 1, 1), cell(0, 0, 4, 0),
			cell(0, 0, 0, 0), cell(0, 2, 0, 3), cell(5, 5, 5, 5),
		}},
		Scenarios: []string{CleanScenario, "mix"},
		Policies:  []string{"crossroads", "batch", "aim"},
		Seeds:     []int64{1},
	}
	if got, want := r.SafetyViolations(), 1+1+1+2+3; got != want {
		t.Errorf("SafetyViolations() = %d, want %d", got, want)
	}
}
