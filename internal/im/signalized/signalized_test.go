package signalized

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// build constructs the policy the way every harness does: through its
// registry entry, with the given -policy-opt knobs.
func build(t *testing.T, params map[string]string) (im.Scheduler, error) {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	ref := kinematics.ScaleModelParams()
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), RefLength: ref.Length, RefWidth: ref.Width, Params: params}
	return e.Factory(x, opts, rand.New(rand.NewSource(1)))
}

func req(id int64, a intersection.Approach, tt float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 3, DistToEntry: 3, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

// inGreen reports whether t falls inside one of the approach's green
// windows under a plan of the given green and all-red durations.
func inGreen(a intersection.Approach, t, green, allRed float64) bool {
	phase := green + allRed
	cycle := float64(intersection.NumApproaches) * phase
	off := float64(a) * phase
	into := t - off - math.Floor((t-off)/cycle)*cycle
	return into <= green+1e-9
}

func TestRegistryEntry(t *testing.T) {
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Protocol != im.ProtocolTimed || e.ReplyHold != 0 {
		t.Errorf("entry: protocol %v, hold %v; want timed, 0", e.Protocol, e.ReplyHold)
	}
	if d := DefaultConfig(); d.Green != 8 || d.AllRed != 2 || d.Core != core.DefaultConfig() {
		t.Errorf("defaults %+v", d)
	}
	for _, tc := range []struct {
		params  map[string]string
		wantErr string
	}{
		{nil, ""},
		{map[string]string{"signalized.green": "-1"}, "Green -1"},
		{map[string]string{"signalized.allred": "-0.5"}, "AllRed -0.5"},
		{map[string]string{"signalized.green": "soon"}, "signalized.green"},
		{map[string]string{"signalized.cycle": "60"}, "unknown parameter signalized.cycle"},
	} {
		_, err := build(t, tc.params)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.params, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.params, err, tc.wantErr)
		}
	}
}

// TestKnobsShapeThePlan proves green and allred reach the phase table: a
// West request whose earliest arrival, 9 s, falls in West's green under
// green=3 and allred=1 ([8, 11]) is granted then, while the default plan,
// whose West green opens at 20 s, does not grant it there.
func TestKnobsShapeThePlan(t *testing.T) {
	tuned, err := build(t, map[string]string{"signalized.green": "3", "signalized.allred": "1"})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := tuned.HandleRequest(8.01, req(1, intersection.West, 8.0))
	if resp.Kind != im.RespTimed || math.Abs(resp.ArriveAt-9.0) > 1e-6 {
		t.Fatalf("tuned plan: %+v, want a timed grant arriving at 9 s", resp)
	}
	def, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = def.HandleRequest(8.01, req(1, intersection.West, 8.0))
	if resp.Kind == im.RespTimed && resp.ArriveAt < 20-1e-9 {
		t.Fatalf("default plan granted West at %v s, before its green opens at 20 s", resp.ArriveAt)
	}
}

func TestNewValidation(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		green, allRed float64
		ok            bool
	}{
		{8, 2, true},
		{8, 0, true},
		{0, 2, false},
		{-1, 2, false},
		{8, -0.1, false},
	} {
		cfg := DefaultConfig()
		cfg.Green, cfg.AllRed = tc.green, tc.allRed
		_, err := New(x, cfg, rand.New(rand.NewSource(1)))
		if (err == nil) != tc.ok {
			t.Errorf("Green %v AllRed %v: error %v, want ok=%v", tc.green, tc.allRed, err, tc.ok)
		}
	}
}

// TestUncommittedGrantsInsideGreen is the phase-table property: a stream
// of requests from every approach, each vehicle leaving once its crossing
// is over, and every uncommitted grant arrives inside its approach's
// green window.
func TestUncommittedGrantsInsideGreen(t *testing.T) {
	const green, allRed = 3.0, 1.0
	s, err := build(t, map[string]string{"signalized.green": "3", "signalized.allred": "1"})
	if err != nil {
		t.Fatal(err)
	}
	granted := map[int64]float64{}
	grants := 0
	for i := int64(0); i < 120; i++ {
		tt := 0.37 * float64(i)
		for id, toa := range granted {
			if toa+2 < tt {
				s.HandleExit(tt, id)
				delete(granted, id)
			}
		}
		a := intersection.Approach(i % intersection.NumApproaches)
		resp, _ := s.HandleRequest(tt+0.01, req(i+1, a, tt))
		if resp.Kind != im.RespTimed {
			continue
		}
		grants++
		granted[i+1] = resp.ArriveAt
		if !inGreen(a, resp.ArriveAt, green, allRed) {
			t.Errorf("vehicle %d from %v granted ToA %.3f outside its green", i+1, a, resp.ArriveAt)
		}
	}
	if grants < 60 {
		t.Fatalf("only %d of 120 requests granted", grants)
	}
}
