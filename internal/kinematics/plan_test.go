package kinematics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	good := ScaleModelParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("scale params invalid: %v", err)
	}
	if err := FullScaleParams().Validate(); err != nil {
		t.Fatalf("full-scale params invalid: %v", err)
	}
	bad := []Params{
		{MaxAccel: 1, MaxDecel: 1, Length: 1, Width: 1, Wheelbase: 1},               // no speed
		{MaxSpeed: 1, MaxDecel: 1, Length: 1, Width: 1, Wheelbase: 1},               // no accel
		{MaxSpeed: 1, MaxAccel: 1, Length: 1, Width: 1, Wheelbase: 1},               // no decel
		{MaxSpeed: 1, MaxAccel: 1, MaxDecel: 1, Width: 1, Wheelbase: 1},             // no length
		{MaxSpeed: 1, MaxAccel: 1, MaxDecel: 1, Length: 1, Wheelbase: 1},            // no width
		{MaxSpeed: 1, MaxAccel: 1, MaxDecel: 1, Length: 1, Width: 1},                // no wheelbase
		{MaxSpeed: -1, MaxAccel: 1, MaxDecel: 1, Length: 1, Width: 1, Wheelbase: 1}, // negative
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestStoppingDistance(t *testing.T) {
	p := Params{MaxSpeed: 10, MaxAccel: 2, MaxDecel: 4, Length: 1, Width: 1, Wheelbase: 1}
	if got := p.StoppingDistance(4); !almostEq(got, 2, 1e-12) {
		t.Errorf("StoppingDistance(4) = %v, want 2", got)
	}
	if got := p.StoppingDistance(0); got != 0 {
		t.Errorf("StoppingDistance(0) = %v", got)
	}
	if got := p.StoppingDistance(-1); got != 0 {
		t.Errorf("StoppingDistance(-1) = %v", got)
	}
}

func TestEarliestArrivalPaperFormula(t *testing.T) {
	// Paper Ch.6: TAcc = (Vmax-Vinit)/amax, DeltaX = 0.5*a*TAcc^2+Vinit*TAcc,
	// EToA = TAcc + (D-DeltaX)/Vmax. Scale model: Vmax=3, a=3.
	p := ScaleModelParams()
	vInit := 1.0
	dist := 3.0
	tAcc := (3.0 - 1.0) / 3.0
	deltaX := 0.5*3*tAcc*tAcc + 1*tAcc
	want := tAcc + (dist-deltaX)/3.0
	eta, vArr := EarliestArrival(dist, vInit, p)
	prof := EarliestProfile(0, dist, vInit, p)
	if !almostEq(eta, want, 1e-9) {
		t.Errorf("EToA = %v, want %v", eta, want)
	}
	if vArr != 3 {
		t.Errorf("vArr = %v, want Vmax", vArr)
	}
	if !almostEq(prof.TotalDistance(), dist, 1e-9) {
		t.Errorf("profile distance = %v, want %v", prof.TotalDistance(), dist)
	}
	if !almostEq(prof.Duration(), want, 1e-9) {
		t.Errorf("profile duration = %v, want %v", prof.Duration(), want)
	}
}

func TestEarliestArrivalShortDistance(t *testing.T) {
	// Too short to reach Vmax: arrival while accelerating.
	p := ScaleModelParams()
	eta, vArr := EarliestArrival(0.5, 0, p)
	prof := EarliestProfile(0, 0.5, 0, p)
	// 0.5 = 0.5*3*t^2 => t = sqrt(1/3).
	want := math.Sqrt(1.0 / 3.0)
	if !almostEq(eta, want, 1e-9) {
		t.Errorf("eta = %v, want %v", eta, want)
	}
	if !almostEq(vArr, 3*want, 1e-9) {
		t.Errorf("vArr = %v, want %v", vArr, 3*want)
	}
	if !almostEq(prof.TotalDistance(), 0.5, 1e-9) {
		t.Errorf("distance = %v", prof.TotalDistance())
	}
}

func TestEarliestArrivalEdgeCases(t *testing.T) {
	p := ScaleModelParams()
	eta, vArr := EarliestArrival(0, 2, p)
	if eta != 0 || vArr != 2 {
		t.Errorf("zero distance: eta=%v vArr=%v", eta, vArr)
	}
	// vInit above MaxSpeed gets clamped.
	eta, vArr = EarliestArrival(3, 99, p)
	if !almostEq(eta, 1, 1e-9) || vArr != 3 {
		t.Errorf("clamped: eta=%v vArr=%v", eta, vArr)
	}
	// Already at max speed: pure cruise.
	eta, _ = EarliestArrival(6, 3, p)
	prof := EarliestProfile(0, 6, 3, p)
	if !almostEq(eta, 2, 1e-9) {
		t.Errorf("cruise eta = %v, want 2", eta)
	}
	if len(prof.Phases) != 2 || prof.Phases[0].Duration != 0 {
		// Acceleration phase should be zero-length.
		if !almostEq(prof.Duration(), 2, 1e-9) {
			t.Errorf("cruise profile = %v", prof)
		}
	}
}

func TestPlanArrivalExactEarliest(t *testing.T) {
	p := ScaleModelParams()
	eta, _ := EarliestArrival(3, 1, p)
	prof, err := PlanArrival(5, 3, 1, 5+eta, p)
	if err != nil {
		t.Fatalf("PlanArrival at earliest failed: %v", err)
	}
	if !almostEq(prof.TimeAtDistance(3), 5+eta, 1e-3) {
		t.Errorf("arrival = %v, want %v", prof.TimeAtDistance(3), 5+eta)
	}
}

// TestPlanArrivalInfeasible: an arrival earlier than the earliest
// reachable one is an ErrInfeasible whose text, formatted when read, is
// the fmt.Errorf text it has always had.
func TestPlanArrivalInfeasible(t *testing.T) {
	p := ScaleModelParams()
	eta, _ := EarliestArrival(3, 1, p)
	_, err := PlanArrival(0, 3, 1, eta-0.5, p)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	want := fmt.Errorf("%w: want arrival %.4fs after start, earliest %.4fs", ErrInfeasible, eta-0.5, eta)
	if err.Error() != want.Error() {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestPlanArrivalInvalidInputs(t *testing.T) {
	if _, err := PlanArrival(0, 3, 1, 2, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := PlanArrival(0, -1, 1, 2, ScaleModelParams()); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestPlanArrivalDipExact(t *testing.T) {
	// Ask for an arrival 1 s after earliest: plan must dip and still cover
	// exactly the distance at exactly the requested time.
	p := ScaleModelParams()
	dist := 3.0
	vInit := 2.0
	eta, _ := EarliestArrival(dist, vInit, p)
	want := eta + 1.0
	prof, err := PlanArrival(0, dist, vInit, want, p)
	if err != nil {
		t.Fatal(err)
	}
	got := prof.TimeAtDistance(dist)
	if !almostEq(got, want, 5e-3) {
		t.Errorf("arrival = %v, want %v", got, want)
	}
	// Velocity must never go negative or exceed MaxSpeed.
	for tt := 0.0; tt <= prof.Duration(); tt += 0.01 {
		v := prof.VelocityAt(tt)
		if v < -1e-9 || v > p.MaxSpeed+1e-9 {
			t.Fatalf("velocity %v out of range at t=%v", v, tt)
		}
	}
}

func TestPlanArrivalStopAndDwell(t *testing.T) {
	// Very late arrival forces stop-and-wait.
	p := ScaleModelParams()
	dist := 3.0
	vInit := 3.0
	want := 20.0
	prof, err := PlanArrival(0, dist, vInit, want, p)
	if err != nil {
		t.Fatal(err)
	}
	got := prof.TimeAtDistance(dist)
	if !almostEq(got, want, 5e-3) {
		t.Errorf("arrival = %v, want %v", got, want)
	}
	// Must contain a stopped dwell.
	foundDwell := false
	for _, ph := range prof.Phases {
		if ph.V0 < 1e-9 && ph.Accel == 0 && ph.Duration > 1 {
			foundDwell = true
		}
	}
	if !foundDwell {
		t.Errorf("no dwell phase in %v", prof)
	}
	// Arrival velocity should be the max launch speed from a standing
	// start over the remaining distance.
	dStop := p.StoppingDistance(vInit)
	rem := dist - dStop
	wantV := math.Min(p.MaxSpeed, math.Sqrt(2*p.MaxAccel*rem))
	if !almostEq(prof.VelocityAt(prof.TimeAtDistance(dist)), wantV, 1e-3) {
		t.Errorf("arrival velocity = %v, want %v", prof.VelocityAt(prof.TimeAtDistance(dist)), wantV)
	}
}

func TestPlanArrivalRandomized(t *testing.T) {
	p := ScaleModelParams()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		vInit := rng.Float64() * p.MaxSpeed
		// Keep the line beyond the stopping distance so arbitrarily late
		// arrivals stay physically feasible (the protocol's safe-stop
		// clause guarantees this in the real system).
		dist := p.StoppingDistance(vInit) + 0.1 + rng.Float64()*5
		eta, _ := EarliestArrival(dist, vInit, p)
		extra := rng.Float64() * 10
		want := eta + extra
		prof, err := PlanArrival(0, dist, vInit, want, p)
		if err != nil {
			t.Fatalf("case %d (d=%v v=%v want=%v): %v", i, dist, vInit, want, err)
		}
		got := prof.TimeAtDistance(dist)
		if !almostEq(got, want, 1e-2) {
			t.Fatalf("case %d: arrival %v, want %v (d=%v v=%v)", i, got, want, dist, vInit)
		}
		// Profile covers at least the distance.
		if prof.TotalDistance() < dist-1e-6 {
			t.Fatalf("case %d: profile too short: %v < %v", i, prof.TotalDistance(), dist)
		}
		for tt := 0.0; tt <= prof.Duration(); tt += prof.Duration() / 50 {
			v := prof.VelocityAt(tt)
			if v < -1e-9 || v > p.MaxSpeed+1e-9 {
				t.Fatalf("case %d: velocity %v out of bounds", i, v)
			}
		}
	}
}

func TestPlanArrivalTooCloseToSlowDown(t *testing.T) {
	// Vehicle 0.5 m out at full speed cannot stop; the planner returns the
	// latest feasible (deepest-dip) profile instead of failing.
	p := ScaleModelParams()
	dist := 0.5
	vInit := 3.0
	prof, err := PlanArrival(0, dist, vInit, 99, p)
	if err != nil {
		t.Fatal(err)
	}
	got := prof.TimeAtDistance(dist)
	if math.IsInf(got, 1) {
		t.Fatal("deepest-dip profile never arrives")
	}
	// Latest possible: brake at max the whole way. v^2 = v0^2 - 2*d*dist.
	vEnd := math.Sqrt(vInit*vInit - 2*p.MaxDecel*dist)
	latest := (vInit - vEnd) / p.MaxDecel
	if !almostEq(got, latest, 1e-2) {
		t.Errorf("arrival = %v, want latest %v", got, latest)
	}
}

func TestVTArrivalHoldSpeed(t *testing.T) {
	p := ScaleModelParams()
	// Want arrival in exactly dist/v seconds when already at v: VT == v.
	v, err := VTArrival(3, 1.5, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 1.5, 1e-3) {
		t.Errorf("VT = %v, want 1.5", v)
	}
}

func TestVTArrivalEarlierThanPossible(t *testing.T) {
	p := ScaleModelParams()
	// Requested arrival earlier than earliest: returns max-profile arrival speed.
	v, err := VTArrival(3, 1, 0.1, p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("VT = %v, want Vmax", v)
	}
}

func TestVTArrivalSlowDown(t *testing.T) {
	p := ScaleModelParams()
	dist := 3.0
	vInit := 3.0
	want := 4.0 // needs roughly 0.75 m/s average
	v, err := VTArrival(dist, vInit, want, p)
	if err != nil {
		t.Fatal(err)
	}
	if v >= vInit {
		t.Fatalf("VT = %v, expected slowdown below %v", v, vInit)
	}
	// Verify the ramp-hold profile actually arrives on time.
	prof := RampHoldProfile(0, dist, vInit, v, p)
	got := prof.TimeAtDistance(dist)
	if !almostEq(got, want, 5e-2) {
		t.Errorf("ramp-hold arrival = %v, want %v", got, want)
	}
}

func TestVTArrivalCrawlInfeasible(t *testing.T) {
	p := ScaleModelParams()
	// A vehicle at full speed 0.1 m out cannot arrive 100 s later.
	_, err := VTArrival(0.1, 3, 100, p)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestRampHoldProfileCoversDistance(t *testing.T) {
	p := ScaleModelParams()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		dist := 0.5 + rng.Float64()*5
		vInit := rng.Float64() * 3
		vTarget := 0.2 + rng.Float64()*2.8
		prof := RampHoldProfile(0, dist, vInit, vTarget, p)
		if prof.TotalDistance() < dist-1e-6 {
			// Allowed only if the truncated ramp covers it exactly.
			t.Fatalf("case %d: distance %v < %v", i, prof.TotalDistance(), dist)
		}
		if !almostEq(prof.TotalDistance(), dist, 1e-6) {
			t.Fatalf("case %d: distance %v != %v", i, prof.TotalDistance(), dist)
		}
	}
}

func TestRampHoldProfileTruncatedRamp(t *testing.T) {
	p := ScaleModelParams()
	// Distance so short the ramp cannot complete.
	prof := RampHoldProfile(0, 0.1, 0, 3, p)
	if !almostEq(prof.TotalDistance(), 0.1, 1e-9) {
		t.Errorf("truncated ramp distance = %v", prof.TotalDistance())
	}
	if prof.FinalVelocity() >= 3 {
		t.Errorf("truncated ramp reached target velocity")
	}
}

func TestSlowestPoint(t *testing.T) {
	p := ScaleModelParams()
	// A dip plan with a dwell: the slow point is the dwell at distance
	// stoppingDistance from the start.
	prof, err := PlanArrival(0, 3.0, 3.0, 10.0, p)
	if err != nil {
		t.Fatal(err)
	}
	minV, remaining := SlowestPoint(prof, 3.0)
	if minV > 1e-9 {
		t.Errorf("dwell plan minV = %v, want 0", minV)
	}
	// Dwell at 1.5 m in (stopping distance from 3 m/s at 3 m/s^2):
	// remaining = 1.5.
	if !almostEq(remaining, 1.5, 1e-6) {
		t.Errorf("dwell remaining = %v, want 1.5", remaining)
	}

	// A cruise profile's slow point is its constant speed, at the end.
	hold := HoldProfile(0, 2, 3)
	minV, remaining = SlowestPoint(hold, 6)
	if minV != 2 {
		t.Errorf("hold minV = %v", minV)
	}
	if !almostEq(remaining, 6, 1e-9) && !almostEq(remaining, 0, 1e-9) {
		// Constant speed: start and end tie; either endpoint is fine.
		t.Errorf("hold remaining = %v", remaining)
	}

	// An accelerating profile bottoms at its start.
	acc := NewProfile(0, Phase{Duration: 1, V0: 1, Accel: 2})
	minV, remaining = SlowestPoint(acc, 2)
	if minV != 1 || !almostEq(remaining, 2, 1e-9) {
		t.Errorf("accel slow point = %v at remaining %v", minV, remaining)
	}

	// Empty profile.
	minV, remaining = SlowestPoint(Profile{}, 5)
	if minV != 0 || remaining != 5 {
		t.Errorf("empty profile = %v, %v", minV, remaining)
	}
}

func TestSlowestPointDipWithoutDwell(t *testing.T) {
	p := ScaleModelParams()
	// Moderate delay: a dip that bottoms above zero mid-approach.
	eta, _ := EarliestArrival(3.0, 3.0, p)
	prof, err := PlanArrival(0, 3.0, 3.0, eta+0.4, p)
	if err != nil {
		t.Fatal(err)
	}
	minV, remaining := SlowestPoint(prof, 3.0)
	if minV <= 0 || minV >= 3 {
		t.Errorf("dip bottom = %v, want within (0, 3)", minV)
	}
	if remaining <= 0 || remaining >= 3 {
		t.Errorf("dip bottom remaining = %v", remaining)
	}
}

func TestLatestNoDwell(t *testing.T) {
	// A vehicle 15 m out at 12 m/s (full scale) can no longer stop behind a
	// 5.13 m lip: its latest *safe* arrival is the deepest no-dwell dip.
	p := FullScaleParams()
	dist, vInit, floor := 15.0, 12.0, 0.1

	eta, ok := LatestNoDwell(dist, vInit, floor, p)
	if !ok {
		t.Fatal("no-dwell bound infeasible")
	}
	earliest, _ := EarliestArrival(dist, vInit, p)
	if eta <= earliest {
		t.Fatalf("latest %v not after earliest %v", eta, earliest)
	}
	// The bound is realizable without dwelling: a plan targeting it covers
	// the distance on time and never slows below the floor.
	prof, err := PlanArrival(0, dist, vInit, eta, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.TimeAtDistance(dist); !almostEq(got, eta, 1e-2) {
		t.Errorf("arrival = %v, want %v", got, eta)
	}
	if minV, _ := SlowestPoint(prof, dist); minV < floor-1e-6 {
		t.Errorf("plan dips to %v, below floor %v", minV, floor)
	}
	// And it is tight: arriving appreciably later forces a stop-and-dwell
	// profile, which is exactly what the bound exists to exclude.
	late, err := PlanArrival(0, dist, vInit, eta+1.0, p)
	if err != nil {
		t.Fatal(err)
	}
	if minV, _ := SlowestPoint(late, dist); minV >= floor {
		t.Errorf("arrival %v past the bound still floats above the floor (minV %v)", eta+1.0, minV)
	}
}

func TestLatestNoDwellHigherFloorIsEarlier(t *testing.T) {
	p := FullScaleParams()
	low, ok1 := LatestNoDwell(15, 12, 0.1, p)
	high, ok2 := LatestNoDwell(15, 12, 2.0, p)
	if !ok1 || !ok2 {
		t.Fatal("bounds infeasible")
	}
	if high >= low {
		t.Errorf("floor 2.0 bound %v not earlier than floor 0.1 bound %v", high, low)
	}
}

func TestLatestNoDwellFloorAboveCurrentSpeed(t *testing.T) {
	// When the floor exceeds the current speed the dip degenerates: the
	// vehicle cannot slow at all, so the latest equals the earliest.
	p := FullScaleParams()
	eta, ok := LatestNoDwell(10, 1.0, 5.0, p)
	if !ok {
		t.Fatal("degenerate bound infeasible")
	}
	earliest, _ := EarliestArrival(10, 1.0, p)
	if !almostEq(eta, earliest, 1e-6) {
		t.Errorf("degenerate latest %v != earliest %v", eta, earliest)
	}
}

func TestLatestNoDwellInvalid(t *testing.T) {
	p := FullScaleParams()
	if _, ok := LatestNoDwell(-1, 3, 0.1, p); ok {
		t.Error("negative distance accepted")
	}
	if _, ok := LatestNoDwell(5, 3, 0.1, Params{}); ok {
		t.Error("invalid params accepted")
	}
}
