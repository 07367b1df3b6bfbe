package im

import (
	"math"
	"testing"

	"crossroads/internal/geom"
	"crossroads/internal/intersection"
)

func TestExitSeparated(t *testing.T) {
	a := ExitCrossing{Time: 10, Speed: 3, PlanLen: 0.724}
	b := ExitCrossing{Time: 10.1, Speed: 3, PlanLen: 0.724}
	if ExitSeparated(a, b, 1.5) {
		t.Error("0.1 s apart at 3 m/s should not be separated")
	}
	c := ExitCrossing{Time: 12, Speed: 3, PlanLen: 0.724}
	if !ExitSeparated(a, c, 1.5) {
		t.Error("2 s apart should be separated")
	}
	// Faster follower needs the catch-up margin.
	fast := ExitCrossing{Time: 10.4, Speed: 3, PlanLen: 0.724}
	slowLead := ExitCrossing{Time: 10, Speed: 0.8, PlanLen: 0.724}
	if ExitSeparated(slowLead, fast, 1.5) {
		t.Error("fast follower behind slow leader should need more margin")
	}
}

// TestSweepTilesSamplesAndSlack: a straight crossing at constant speed is
// sampled every dt across the inflated body's whole passage, and each
// sample's tiles are held from one step before to two steps after it.
func TestSweepTilesSamplesAndSlack(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := intersection.NewTileGrid(x.Box(), 8)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Movement(intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight})
	const dt, planLen, planWid, v = 0.05, 0.7, 0.4, 2.0
	cross := Reservation{ToA: 3, Plan: ConstantPlan(v)}
	occ, n := SweepTiles(grid, m, cross, planLen, planWid, dt)
	// Samples run from ToA - (planLen/2)/v to the time the body's rear
	// clears the exit, every dt.
	span := (m.InsideLen() + planLen) / v
	if want := int(math.Floor(span/dt)) + 1; n < want-1 || n > want+1 {
		t.Errorf("%d samples, want about %d", n, want)
	}
	first, steps := occ.Steps()
	if wantFirst := int64(math.Floor((3-planLen/2/v)/dt)) - 1; first != wantFirst {
		t.Errorf("footprint starts at step %d, want %d (a step of slack before the first sample)", first, wantFirst)
	}
	if steps < n || steps > n+4 {
		t.Errorf("footprint spans %d steps for %d samples", steps, n)
	}
	if occ.Pairs() == 0 {
		t.Fatal("footprint holds no tile")
	}
	// A crossing that never touches the grid still costs its samples.
	away, err := intersection.NewTileGrid(geom.AABB{Min: geom.V(50, 50), Max: geom.V(51, 51)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if occ, got := SweepTiles(away, m, cross, planLen, planWid, dt); got != n || occ.Pairs() != 0 {
		t.Errorf("off-grid sweep: %d samples, %d pairs; want %d samples and no pairs", got, occ.Pairs(), n)
	}
}
