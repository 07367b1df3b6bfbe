package batch

import (
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
)

func newSched(t *testing.T) *Scheduler {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cost.Jitter = 0
	s, err := New(x, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func req(id int64, a intersection.Approach, tt, dt, vc float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: vc, DistToEntry: dt, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestBatchGrantIsTimedWithWindowAnchor(t *testing.T) {
	s := newSched(t)
	resp, cost := s.HandleRequest(0.05, req(1, intersection.East, 0.04, 3.0, 3.0))
	if resp.Kind != im.RespTimed {
		t.Fatalf("Kind = %v", resp.Kind)
	}
	// TE = TT + window + WC-RTD: the batching latency is part of the
	// deterministic anchoring.
	wantTE := 0.04 + 0.25 + 0.15
	if math.Abs(resp.ExecuteAt-wantTE) > 1e-9 {
		t.Errorf("TE = %v, want %v", resp.ExecuteAt, wantTE)
	}
	// Computation cost stays small; the reply is *held* (not computed)
	// until the window closes.
	if cost > 0.1 {
		t.Errorf("cost = %v, want small compute-only cost", cost)
	}
	if rel := s.ReleaseAt(0.06, im.Request{}); math.Abs(rel-(0.05+0.25)) > 1e-9 {
		t.Errorf("ReleaseAt = %v, want window close", rel)
	}
	if s.Name() != PolicyName {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestBatchWindowTurnsOver(t *testing.T) {
	s := newSched(t)
	s.HandleRequest(0.05, req(1, intersection.East, 0.04, 3.0, 3.0))
	s.HandleRequest(0.10, req(2, intersection.North, 0.09, 3.0, 3.0))
	if rel := s.ReleaseAt(0.10, im.Request{}); math.Abs(rel-(0.05+0.25)) > 1e-9 {
		t.Errorf("window turned over early: ReleaseAt = %v, want %v", rel, 0.05+0.25)
	}
	// A request past the window boundary opens the next window.
	s.HandleRequest(0.35, req(3, intersection.West, 0.34, 3.0, 3.0))
	if rel := s.ReleaseAt(0.35, im.Request{}); math.Abs(rel-(0.35+0.25)) > 1e-9 {
		t.Errorf("ReleaseAt = %v, want the next window's close %v", rel, 0.35+0.25)
	}
}

func TestBatchConflictSerialization(t *testing.T) {
	s := newSched(t)
	r1, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04, 3.0, 3.0))
	r2, _ := s.HandleRequest(0.06, req(2, intersection.North, 0.05, 3.0, 3.0))
	switch r2.Kind {
	case im.RespTimed:
		if r2.ArriveAt <= r1.ArriveAt {
			t.Errorf("conflicting grants not serialized: %v then %v", r1.ArriveAt, r2.ArriveAt)
		}
	case im.RespVelocity:
		// Stop command (the dip would dwell inside the lip); the turn must
		// still be protected by a placeholder after the first grant.
		if r2.TargetSpeed != 0 {
			t.Fatalf("unexpected velocity grant %v", r2.TargetSpeed)
		}
		hold, ok := s.Book().Get(2)
		if !ok || hold.ToA <= r1.ArriveAt {
			t.Errorf("stop command without a serialized placeholder: %+v, %v", hold, ok)
		}
	default:
		t.Fatalf("unexpected response kind %v", r2.Kind)
	}
}

func TestBatchExitReleases(t *testing.T) {
	s := newSched(t)
	s.HandleRequest(0.05, req(1, intersection.East, 0.04, 3.0, 3.0))
	if _, ok := s.Book().Get(1); !ok {
		t.Fatal("no booking")
	}
	s.HandleExit(5, 1)
	if _, ok := s.Book().Get(1); ok {
		t.Error("booking survived exit")
	}
}

func TestBatchValidation(t *testing.T) {
	x, _ := intersection.New(intersection.ScaleModelConfig())
	cfg := DefaultConfig()
	cfg.Window = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero window accepted")
	}
	cfg = DefaultConfig()
	cfg.Spec.MaxSpeed = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid spec accepted")
	}
	cfg = DefaultConfig()
	cfg.RefLength = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero footprint accepted")
	}
}

func TestBatchInvalidParamsStop(t *testing.T) {
	s := newSched(t)
	bad := req(1, intersection.East, 0, 3, 3)
	bad.Params = kinematics.Params{}
	resp, _ := s.HandleRequest(0.05, bad)
	if resp.Kind != im.RespVelocity || resp.TargetSpeed != 0 {
		t.Errorf("invalid params: %+v", resp)
	}
}
