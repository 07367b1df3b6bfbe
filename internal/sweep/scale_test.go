package sweep

import (
	"reflect"
	"strings"
	"testing"
)

// runSmall runs a reduced experiment (2 repetitions) shared by the tests.
func runSmall(t *testing.T) ScaleResult {
	t.Helper()
	res, err := RunScale(ScaleConfig{Repetitions: 2, Seed: 7, Noisy: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestScaleExperimentShape(t *testing.T) {
	res := runSmall(t)
	if len(res.Results) != 10*2*2 {
		t.Fatalf("cells = %d", len(res.Results))
	}
	if len(res.Policies) != 2 {
		t.Fatalf("%d policies", len(res.Policies))
	}
	for i, sr := range res.Results {
		if sr.Summary.Collisions != 0 {
			t.Errorf("%s: %d collisions", res.Labels[i], sr.Summary.Collisions)
		}
		if sr.Incomplete != 0 {
			t.Errorf("%s: %d incomplete", res.Labels[i], sr.Incomplete)
		}
	}
	for scen := 1; scen <= 10; scen++ {
		for pi, pol := range res.Policies {
			if res.MeanWait(scen, pi) < 0 {
				t.Errorf("scenario %d %s: negative wait", scen, pol)
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
	cfg := ScaleConfig{Repetitions: 1, Seed: 7, Noisy: true, Workers: 1}
	serial, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simulated(serial.Runs), simulated(par.Runs)) {
		t.Errorf("parallel scale result diverged from serial")
	}
}

func TestCustomPolicies(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		Repetitions: 1,
		Seed:        3,
		Policies:    []string{"aim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 1 || res.Cell(1, 0, 0).Policy != "aim" {
		t.Errorf("custom policy not honored: %v", res.Policies)
	}
}
