package im

import (
	"math"
	"math/rand"
	"reflect"
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
	occ, n, _ := SweepTiles(grid, m, cross, planLen, planWid, dt, nil)
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
	if occ, got, _ := SweepTiles(away, m, cross, planLen, planWid, dt, nil); got != n || occ.Pairs() != 0 {
		t.Errorf("off-grid sweep: %d samples, %d pairs; want %d samples and no pairs", got, occ.Pairs(), n)
	}
}

// TestFittingSweepMatchesFullSweep: over seeded reservation states, the
// sweep that fits against the reservations agrees with a full sweep plus
// Available on whether the crossing fits, returns the full sweep's
// occupancy whenever it fits, and counts the full sweep's samples every
// time. Crossings are constant-speed and accelerating, from every
// movement, at times around the held ones.
func TestFittingSweepMatchesFullSweep(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	movements := x.Movements()
	for _, tc := range []struct {
		n      int
		dt     float64
		planLW [2]float64
	}{{8, 0.05, [2]float64{0.72, 0.4}}, {8, 0.1, [2]float64{0.6, 0.3}}, {12, 0.05, [2]float64{0.5, 0.25}}} {
		grid, err := intersection.NewTileGrid(x.Box(), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		planLen, planWid := tc.planLW[0], tc.planLW[1]
		rng := rand.New(rand.NewSource(int64(tc.n) * 31))
		crossing := func() (*intersection.Movement, Reservation) {
			m := movements[rng.Intn(len(movements))]
			toa, v := rng.Float64()*8, 0.3+rng.Float64()*2.7
			if rng.Intn(2) == 0 {
				return m, Reservation{ToA: toa, Plan: ConstantPlan(v)}
			}
			return m, Reservation{ToA: toa, Plan: AccelPlan(toa, v, 3, 2+rng.Float64()*2)}
		}
		fits, refused := 0, 0
		for state := 0; state < 20; state++ {
			res := intersection.NewReservations(grid)
			for id := int64(0); id < int64(state%8); id++ {
				m, cross := crossing()
				occ, _, _ := SweepTiles(grid, m, cross, planLen, planWid, tc.dt, nil)
				res.Reserve(id, occ)
			}
			for probe := 0; probe < 60; probe++ {
				m, cross := crossing()
				full, nFull, ok := SweepTiles(grid, m, cross, planLen, planWid, tc.dt, nil)
				if !ok {
					t.Fatal("a sweep with no reservations to fit reports no fit")
				}
				occ, n, fit := SweepTiles(grid, m, cross, planLen, planWid, tc.dt, res)
				if want := res.Available(full); fit != want {
					t.Fatalf("n=%d state %d probe %d: fits %v, Available on the full sweep %v", tc.n, state, probe, fit, want)
				}
				if n != nFull {
					t.Fatalf("n=%d state %d probe %d: %d samples, full sweep %d", tc.n, state, probe, n, nFull)
				}
				if n != SweepSamples(m, cross, planLen, tc.dt) {
					t.Fatalf("n=%d state %d probe %d: SweepSamples %d, sweep %d", tc.n, state, probe, SweepSamples(m, cross, planLen, tc.dt), n)
				}
				if !fit {
					refused++
					continue
				}
				fits++
				if !reflect.DeepEqual(occ, full) {
					t.Fatalf("n=%d state %d probe %d: the fitting sweep's occupancy differs from the full sweep's", tc.n, state, probe)
				}
			}
		}
		if fits == 0 || refused == 0 {
			t.Fatalf("n=%d: %d probes fit and %d were refused: the states do not exercise both answers", tc.n, fits, refused)
		}
	}
}
