package sweep

import (
	"reflect"
	"strings"
	"testing"
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
	res, err := RunFaultMatrix(DefaultFaultMatrixConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) < 5 || res.Scenarios[0] != CleanScenario {
		t.Fatalf("scenarios = %v, want clean plus the named set", res.Scenarios)
	}
	if n := res.SafetyViolations(); n != 0 {
		t.Errorf("SafetyViolations() = %d, want 0\n%s", n, res.Table().String())
	}
	for si, row := range res.Cells {
		for pi, col := range row {
			for _, c := range col {
				if c.Incomplete != c.FailsafeStopped+c.Stranded {
					t.Errorf("%s/%s/seed=%d: incomplete=%d != failsafe=%d + stranded=%d",
						res.Scenarios[si], c.Policy, c.Seed, c.Incomplete, c.FailsafeStopped, c.Stranded)
				}
				p := res.Policies[pi]
				if p != "crossroads" && p != "batch" {
					continue
				}
				if c.Stranded != 0 {
					t.Errorf("%s/%s/seed=%d: %d stranded vehicles",
						res.Scenarios[si], c.Policy, c.Seed, c.Stranded)
				}
			}
		}
	}
	// The clean baseline itself must be spotless and fully completed.
	for pi := range res.Policies {
		for wi := range res.Seeds {
			c := res.Cells[0][pi][wi]
			if c.Collisions != 0 || c.BufferViolations != 0 || c.Incomplete != 0 {
				t.Errorf("clean/%s/seed=%d not clean: %+v", c.Policy, c.Seed, c)
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
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
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
