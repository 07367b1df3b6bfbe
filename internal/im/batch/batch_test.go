package batch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crossroads/internal/core"
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
	cfg.Core.Cost.Jitter = 0
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
	cfg.Core.Spec.MaxSpeed = 0
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid spec accepted")
	}
	cfg = DefaultConfig()
	cfg.Core.RefLength = 0
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

// TestCommittedMatchesCrossroads: a committed request bypasses the window,
// so batch anchors it at TT + WC-RTD as Crossroads does and must command
// it exactly as Crossroads would. Seeded streams of 2-5 committed
// requests mix approaches and turns, queue some on one lane, and draw DT
// in 0.6-3.0 m and VC in 0.5-3.0 m/s; batch and core.New must return the
// same response, cost and revisions, grant for grant.
func TestCommittedMatchesCrossroads(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	const streams = 3000
	differ := 0
	for stream := 0; stream < streams; stream++ {
		b, err := New(x, DefaultConfig(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.New(x, core.DefaultConfig(), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		tt := 0.0
		a := intersection.Approach(rng.Intn(intersection.NumApproaches))
		for i, n := 0, 2+rng.Intn(4); i < n; i++ {
			// Half the requests keep the previous request's lane and
			// queue behind it.
			if rng.Intn(2) == 0 {
				a = intersection.Approach(rng.Intn(intersection.NumApproaches))
			}
			tt += 0.5 * rng.Float64()
			r := im.Request{
				VehicleID: int64(i + 1), Seq: 1, Committed: true,
				Movement:     intersection.MovementID{Approach: a, Turn: intersection.Turn(rng.Intn(3))},
				CurrentSpeed: 0.5 + 2.5*rng.Float64(), DistToEntry: 0.6 + 2.4*rng.Float64(),
				TransmitTime: tt, Params: kinematics.ScaleModelParams(),
			}
			got, gotCost := b.HandleRequest(tt+0.01, r)
			want, wantCost := c.HandleRequest(tt+0.01, r)
			gotPush, wantPush := b.TakePushes(), c.TakePushes()
			if got != want || gotCost != wantCost || !reflect.DeepEqual(gotPush, wantPush) {
				if differ == 0 {
					t.Errorf("stream %d request %d %+v:\nbatch      %+v cost %v revisions %+v\ncrossroads %+v cost %v revisions %+v",
						stream, i+1, r, got, gotCost, gotPush, want, wantCost, wantPush)
				}
				differ++
				break
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d committed streams differ from Crossroads", differ, streams)
	}
}
