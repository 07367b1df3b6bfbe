package kinematics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPhaseBasics(t *testing.T) {
	ph := Phase{Duration: 2, V0: 1, Accel: 0.5}
	if got := ph.VEnd(); got != 2 {
		t.Errorf("VEnd = %v, want 2", got)
	}
	if got := ph.Distance(); got != 1*2+0.5*0.5*4 {
		t.Errorf("Distance = %v, want 3", got)
	}
}

func TestProfileVelocityAndDistance(t *testing.T) {
	// Accelerate 0->2 m/s over 2 s (a=1), then hold 2 m/s for 3 s.
	p := NewProfile(10,
		Phase{Duration: 2, V0: 0, Accel: 1},
		Phase{Duration: 3, V0: 2, Accel: 0},
	)
	if got := p.Duration(); got != 5 {
		t.Errorf("Duration = %v", got)
	}
	if got := p.EndTime(); got != 15 {
		t.Errorf("EndTime = %v", got)
	}
	if got := p.FinalVelocity(); got != 2 {
		t.Errorf("FinalVelocity = %v", got)
	}
	if got := p.TotalDistance(); got != 2+6 {
		t.Errorf("TotalDistance = %v", got)
	}
	cases := []struct{ t, wantV, wantD float64 }{
		{9, 0, 0},    // before start: hold initial velocity (0)
		{10, 0, 0},   // start
		{11, 1, 0.5}, // mid-acceleration
		{12, 2, 2},   // end of acceleration
		{13.5, 2, 5}, // cruising
		{15, 2, 8},   // end
		{16, 2, 10},  // extrapolation at final velocity
	}
	for _, c := range cases {
		if got := p.VelocityAt(c.t); !almostEq(got, c.wantV, 1e-12) {
			t.Errorf("VelocityAt(%v) = %v, want %v", c.t, got, c.wantV)
		}
		if got := p.DistanceAt(c.t); !almostEq(got, c.wantD, 1e-12) {
			t.Errorf("DistanceAt(%v) = %v, want %v", c.t, got, c.wantD)
		}
	}
}

func TestProfileBackwardExtrapolation(t *testing.T) {
	// Vehicle approaching at 3 m/s before profile starts.
	p := NewProfile(5, Phase{Duration: 2, V0: 3, Accel: -1})
	if got := p.DistanceAt(4); !almostEq(got, -3, 1e-12) {
		t.Errorf("DistanceAt before start = %v, want -3", got)
	}
	if got := p.VelocityAt(0); got != 3 {
		t.Errorf("VelocityAt before start = %v, want 3", got)
	}
}

func TestProfileTimeAtDistance(t *testing.T) {
	p := NewProfile(0,
		Phase{Duration: 2, V0: 0, Accel: 1}, // covers 2 m
		Phase{Duration: 1, V0: 2, Accel: 0}, // covers 2 m
	)
	if got := p.TimeAtDistance(0); got != 0 {
		t.Errorf("TimeAtDistance(0) = %v", got)
	}
	// 0.5 m during acceleration: 0.5 = 0.5*t^2 => t=1.
	if got := p.TimeAtDistance(0.5); !almostEq(got, 1, 1e-9) {
		t.Errorf("TimeAtDistance(0.5) = %v, want 1", got)
	}
	// 3 m: 2 m in phase 1, then 1 m at 2 m/s => t=2.5.
	if got := p.TimeAtDistance(3); !almostEq(got, 2.5, 1e-9) {
		t.Errorf("TimeAtDistance(3) = %v, want 2.5", got)
	}
	// 6 m: 4 m in phases, 2 m extrapolated at 2 m/s => t=4.
	if got := p.TimeAtDistance(6); !almostEq(got, 4, 1e-9) {
		t.Errorf("TimeAtDistance(6) = %v, want 4", got)
	}
}

func TestProfileTimeAtDistanceUnreachable(t *testing.T) {
	// Brake to a stop after 2 m; 5 m is never reached.
	p := NewProfile(0, Phase{Duration: 2, V0: 2, Accel: -1})
	if got := p.TimeAtDistance(5); !math.IsInf(got, 1) {
		t.Errorf("TimeAtDistance(5) = %v, want +Inf", got)
	}
	if got := p.TimeAtDistance(2); !almostEq(got, 2, 1e-6) {
		t.Errorf("TimeAtDistance(2) = %v, want 2", got)
	}
}

func TestProfileRoundTripTimeDistance(t *testing.T) {
	f := func(v0, a1, d1, d2 float64) bool {
		v0 = math.Abs(math.Mod(v0, 10))
		a1 = math.Mod(a1, 3)
		d1 = math.Abs(math.Mod(d1, 5)) + 0.1
		d2 = math.Abs(math.Mod(d2, 5)) + 0.1
		// Keep velocity nonnegative through phase 1.
		if v0+a1*d1 < 0.1 {
			a1 = (0.1 - v0) / d1
		}
		p := NewProfile(1,
			Phase{Duration: d1, V0: v0, Accel: a1},
			Phase{Duration: d2, V0: v0 + a1*d1, Accel: 0},
		)
		// Pick a distance mid-profile and round-trip it.
		target := p.TotalDistance() * 0.6
		if target <= 0 {
			return true
		}
		tt := p.TimeAtDistance(target)
		if math.IsInf(tt, 1) {
			return true // stopped profile; nothing to check
		}
		back := p.DistanceAt(tt)
		return almostEq(back, target, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileMonotoneDistance(t *testing.T) {
	// Distance must be nondecreasing for profiles with nonnegative velocity.
	p := NewProfile(0,
		Phase{Duration: 1, V0: 3, Accel: -3}, // brake to 0
		Phase{Duration: 2, V0: 0, Accel: 0},  // dwell
		Phase{Duration: 1, V0: 0, Accel: 2},  // launch
	)
	prev := math.Inf(-1)
	for tt := 0.0; tt < 5; tt += 0.01 {
		d := p.DistanceAt(tt)
		if d < prev-1e-12 {
			t.Fatalf("distance decreased at t=%v: %v < %v", tt, d, prev)
		}
		prev = d
	}
}

func TestNewProfilePanicsOnDiscontinuity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewProfile(0, Phase{Duration: 1, V0: 0, Accel: 1}, Phase{Duration: 1, V0: 5, Accel: 0})
}

func TestNewProfilePanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewProfile(0, Phase{Duration: -1, V0: 0, Accel: 1})
}

func TestProfileShiftAndAppend(t *testing.T) {
	p := NewProfile(0, Phase{Duration: 1, V0: 1, Accel: 0})
	q := p.Shift(2)
	if q.StartTime != 2 || p.StartTime != 0 {
		t.Errorf("Shift: got %v / original %v", q.StartTime, p.StartTime)
	}
	r := p.Append(Phase{Duration: 1, V0: 1, Accel: 1})
	if r.Duration() != 2 || p.Duration() != 1 {
		t.Errorf("Append mutated original or wrong duration")
	}
	if r.FinalVelocity() != 2 {
		t.Errorf("FinalVelocity after append = %v", r.FinalVelocity())
	}
}

func TestProfileAppendPanicsOnJump(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := NewProfile(0, Phase{Duration: 1, V0: 1, Accel: 0})
	p.Append(Phase{Duration: 1, V0: 9, Accel: 0})
}

func TestProfileString(t *testing.T) {
	p := NewProfile(1.5, Phase{Duration: 2, V0: 1, Accel: 0.25})
	s := p.String()
	if !strings.Contains(s, "t0=1.500") || !strings.Contains(s, "v0=1.00") {
		t.Errorf("String = %q", s)
	}
}

func TestHoldRampStopProfiles(t *testing.T) {
	h := HoldProfile(0, 2, 3)
	if h.TotalDistance() != 6 || h.FinalVelocity() != 2 {
		t.Errorf("HoldProfile: %v, %v", h.TotalDistance(), h.FinalVelocity())
	}
	r := RampProfile(0, 1, 3, 2)
	if !almostEq(r.Duration(), 1, 1e-12) || r.FinalVelocity() != 3 {
		t.Errorf("RampProfile up: %v, %v", r.Duration(), r.FinalVelocity())
	}
	rd := RampProfile(0, 3, 1, 2)
	if !almostEq(rd.Duration(), 1, 1e-12) || rd.FinalVelocity() != 1 {
		t.Errorf("RampProfile down: %v, %v", rd.Duration(), rd.FinalVelocity())
	}
	if n := RampProfile(0, 2, 2, 1); n.Duration() != 0 {
		t.Errorf("RampProfile flat: %v", n.Duration())
	}
}

func TestRampProfilePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RampProfile(0, 1, 2, 0)
}
