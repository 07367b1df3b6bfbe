package scale

import (
	"reflect"
	"strings"
	"testing"
)

// runSmall runs a reduced experiment (2 repetitions) shared by the tests.
func runSmall(t *testing.T) Result {
	t.Helper()
	res, err := Run(Config{Repetitions: 2, Seed: 7, Noisy: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestScaleExperimentShape(t *testing.T) {
	res := runSmall(t)
	if len(res.PerScenario) != 10 {
		t.Fatalf("scenarios = %d", len(res.PerScenario))
	}
	for i, row := range res.PerScenario {
		if len(row) != 2 {
			t.Fatalf("scenario %d has %d policies", i+1, len(row))
		}
		for _, sr := range row {
			if sr.Collisions != 0 {
				t.Errorf("scenario %d %s: %d collisions", i+1, sr.Policy, sr.Collisions)
			}
			if sr.Incomplete != 0 {
				t.Errorf("scenario %d %s: %d incomplete", i+1, sr.Policy, sr.Incomplete)
			}
			if sr.MeanWait < 0 {
				t.Errorf("scenario %d %s: negative wait", i+1, sr.Policy)
			}
		}
	}
}

func TestCrossroadsReducesWait(t *testing.T) {
	res := runSmall(t)
	// Headline claim: Crossroads cuts average wait vs buffered VT-IM.
	vt := res.AverageWait(0)
	cr := res.AverageWait(1)
	if cr >= vt {
		t.Errorf("Crossroads average wait %v not better than VT-IM %v", cr, vt)
	}
	// Worst-case scenario 1 should show a clear gap.
	sp := res.Speedup(0, 1)
	if sp[0] <= 1.0 {
		t.Errorf("scenario 1 speedup = %v, want > 1", sp[0])
	}
}

func TestWorstCaseGapExceedsBestCase(t *testing.T) {
	// Paper: 1.24x in scenario 1 down to 1.08x in scenario 10 — the gap
	// shrinks as traffic thins.
	res := runSmall(t)
	sp := res.Speedup(0, 1)
	if sp[0] <= sp[9] {
		t.Errorf("worst-case speedup %v not above best-case %v", sp[0], sp[9])
	}
}

func TestTableRenders(t *testing.T) {
	res := runSmall(t)
	out := res.Table().String()
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	for _, want := range []string{"scenario", "vt-im", "crossroads", "AVG", "ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestScaleParallelMatchesSerial(t *testing.T) {
	cfg := Config{Repetitions: 1, Seed: 7, Noisy: true, Workers: 1}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel scale result diverged from serial")
	}
}

func TestCustomPolicies(t *testing.T) {
	res, err := Run(Config{
		Repetitions: 1,
		Seed:        3,
		Policies:    []string{"aim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 1 || res.PerScenario[0][0].Policy != "aim" {
		t.Errorf("custom policy not honored: %+v", res.PerScenario[0])
	}
}
