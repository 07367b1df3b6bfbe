package dot

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// build constructs the policy the way every harness does: through its
// registry entry, with the given -policy-opt knobs.
func build(t *testing.T, params map[string]string) (*Scheduler, error) {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), Params: params}
	s, err := e.Factory(x, opts, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	return s.(*Scheduler), nil
}

func req(id int64, a intersection.Approach, tt float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 3, DistToEntry: 3, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestRegistryEntry(t *testing.T) {
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Protocol != im.ProtocolTimed || e.ReplyHold != 0 {
		t.Errorf("entry: protocol %v, hold %v; want timed, 0", e.Protocol, e.ReplyHold)
	}
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.GridN != 8 || c.TimeStep != 0.1 || c.Horizon != 40 || c.MinCrossSpeed != 0.1 {
		t.Errorf("defaults %+v", c)
	}
	s, err = build(t, map[string]string{"dot.grid": "12", "dot.step": "0.05", "dot.horizon": "20"})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.GridN != 12 || c.TimeStep != 0.05 || c.Horizon != 20 {
		t.Errorf("knobs did not reach the config: %+v", c)
	}
	for _, tc := range []struct {
		params  map[string]string
		wantErr string
	}{
		{map[string]string{"dot.grid": "-4"}, "tile grid size -4"},
		{map[string]string{"dot.step": "fine"}, "dot.step"},
		{map[string]string{"dot.slack": "2"}, "unknown parameter dot.slack"},
	} {
		if _, err := build(t, tc.params); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.params, err, tc.wantErr)
		}
	}
}

// TestGrantIsTimedAtTE: the command executes at TE = TT + WC-RTD, and on
// a free intersection it arrives as early as the vehicle can.
func TestGrantIsTimedAtTE(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04))
	if r.Kind != im.RespTimed {
		t.Fatalf("Kind = %v", r.Kind)
	}
	te := 0.04 + safety.TestbedSpec().WorstRTD
	if math.Abs(r.ExecuteAt-te) > 1e-9 {
		t.Errorf("TE = %v, want %v", r.ExecuteAt, te)
	}
	// DE = DT - VC*WC-RTD, covered at top speed from TE.
	if toa := te + (3-3*0.15)/3; math.Abs(r.ArriveAt-toa) > 1e-6 {
		t.Errorf("ToA = %v, want %v", r.ArriveAt, toa)
	}
}

// TestSimultaneousConflictsGetDisjointCrossings: two crossing movements
// requesting at the same instant are both granted, and their space-time
// tile footprints do not overlap.
func TestSimultaneousConflictsGetDisjointCrossings(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04))
	r2, _ := s.HandleRequest(0.05, req(2, intersection.North, 0.04))
	if r1.Kind != im.RespTimed || r2.Kind != im.RespTimed {
		t.Fatalf("responses %v, %v; want two timed grants", r1.Kind, r2.Kind)
	}
	if r2.ArriveAt <= r1.ArriveAt {
		t.Errorf("conflicting crossings not serialized: ToA %v then %v", r1.ArriveAt, r2.ArriveAt)
	}
	g1, g2 := s.grants[1], s.grants[2]
	if len(g1.steps) == 0 || len(g2.steps) == 0 {
		t.Fatal("a grant booked no tiles")
	}
	if stepsOverlap(g1.steps, g2.steps) {
		t.Error("granted footprints share a tile in the same time step")
	}
}
