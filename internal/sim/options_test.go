package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
)

// TestNewConfigSetsFields proves every option lands on its Config field.
func TestNewConfigSetsFields(t *testing.T) {
	rec := intersection.FullScaleConfig()
	cfg, err := NewConfig(
		WithPolicy("vt-im"),
		WithSeed(99),
		WithIntersection(rec),
		WithSpec(safety.FullScaleSpec()),
		WithLossProb(0.1),
		WithPhysicsDt(0.02),
		WithMaxSimTime(45),
		WithClockError(0.5, 40),
		WithOmitRTDBuffer(),
		WithCollisionEvery(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Policy:           "vt-im",
		Seed:             99,
		Intersection:     rec,
		Spec:             safety.FullScaleSpec(),
		LossProb:         0.1,
		PhysicsDt:        0.02,
		MaxSimTime:       45,
		ClockMaxOffset:   0.5,
		ClockMaxDriftPPM: 40,
		OmitRTDBuffer:    true,
		CollisionEvery:   4,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("NewConfig mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestNewConfigRejectsContradictions proves Validate runs at construction.
func TestNewConfigRejectsContradictions(t *testing.T) {
	_, err := NewConfig(WithPolicy("crossroads"), WithOmitRTDBuffer())
	if err == nil {
		t.Fatal("NewConfig accepted the crossroads RTD ablation")
	}
	_, err = NewConfig(WithPolicy("crossroads"), WithDESTrace())
	if err == nil {
		t.Fatal("NewConfig accepted TraceDES without a recorder")
	}
}

// TestNewConfigRequiresRegisteredPolicy proves a config names its policy:
// neither the zero value nor an unregistered name runs, and the error
// lists the registered policies.
func TestNewConfigRequiresRegisteredPolicy(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithPolicy("nope")}} {
		_, err := NewConfig(opts...)
		if err == nil {
			t.Fatalf("NewConfig(%d options) accepted a config naming no registered policy", len(opts))
		}
		for _, name := range im.Policies() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list registered policy %q", err, name)
			}
		}
	}
}

// TestNewConfigRunEquivalence proves a NewConfig-built run is bit-identical
// to a run of a struct literal with the same knobs.
func TestNewConfigRunEquivalence(t *testing.T) {
	arrivals, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(WithPolicy("crossroads"), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Policy: "crossroads", Seed: 7}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	// SchedulerWall is measured wall-clock time; everything else must be
	// bit-identical.
	got.Summary.SchedulerWall = 0
	want.Summary.SchedulerWall = 0
	for i := range got.PerNode {
		got.PerNode[i].SchedulerWall = 0
		want.PerNode[i].SchedulerWall = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewConfig run diverges from struct-literal run:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
}
