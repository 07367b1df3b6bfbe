package kinematics

import (
	"math"
	"testing"

	"crossroads/internal/geom"
)

func TestBicycleStraightLine(t *testing.T) {
	s := BicycleState{Pos: geom.V(0, 0), Heading: 0, V: 2}
	u := BicycleInput{Accel: 0, Steer: 0}
	for i := 0; i < 100; i++ {
		s = StepEuler(s, u, 0.3, 0.01)
	}
	if !s.Pos.ApproxEq(geom.V(2, 0), 1e-9) {
		t.Errorf("pos = %v, want (2,0)", s.Pos)
	}
	if s.Heading != 0 || s.V != 2 {
		t.Errorf("heading=%v v=%v", s.Heading, s.V)
	}
}

func TestBicycleAcceleration(t *testing.T) {
	s := BicycleState{V: 0}
	u := BicycleInput{Accel: 1}
	for i := 0; i < 100; i++ {
		s = StepRK4(s, u, 0.3, 0.01)
	}
	if !almostEq(s.V, 1, 1e-9) {
		t.Errorf("v = %v, want 1", s.V)
	}
	// Distance ~ 0.5*a*t^2 = 0.5.
	if !almostEq(s.Pos.X, 0.5, 1e-6) {
		t.Errorf("x = %v, want 0.5", s.Pos.X)
	}
}

func TestBicycleSpeedClampedAtZero(t *testing.T) {
	s := BicycleState{V: 0.5}
	u := BicycleInput{Accel: -10}
	for i := 0; i < 100; i++ {
		s = StepEuler(s, u, 0.3, 0.01)
		if s.V < 0 {
			t.Fatalf("speed went negative: %v", s.V)
		}
	}
	s2 := BicycleState{V: 0.5}
	for i := 0; i < 100; i++ {
		s2 = StepRK4(s2, u, 0.3, 0.01)
		if s2.V < 0 {
			t.Fatalf("RK4 speed went negative: %v", s2.V)
		}
	}
}

func TestBicycleTurningRadius(t *testing.T) {
	// At constant steer psi, the bicycle follows a circle of radius
	// R = l / tan(psi). Verify with RK4 after a full quarter turn.
	l := 0.335
	psi := 0.3
	radius := l / math.Tan(psi)
	s := BicycleState{Pos: geom.V(0, 0), Heading: 0, V: 1}
	u := BicycleInput{Steer: psi}
	// Circle center should be at (0, R).
	center := geom.V(0, radius)
	dt := 0.001
	for i := 0; i < 5000; i++ {
		s = StepRK4(s, u, l, dt)
		if d := s.Pos.Dist(center); !almostEq(d, radius, 1e-3) {
			t.Fatalf("step %d: radius drifted to %v, want %v", i, d, radius)
		}
	}
}

func TestRK4MoreAccurateThanEuler(t *testing.T) {
	// Compare against a fine-step reference on a turning trajectory.
	l := 0.3
	u := BicycleInput{Accel: 0.5, Steer: 0.2}
	ref := BicycleState{V: 1}
	for i := 0; i < 100000; i++ {
		ref = StepRK4(ref, u, l, 1e-5)
	}
	euler := BicycleState{V: 1}
	rk4 := BicycleState{V: 1}
	for i := 0; i < 100; i++ {
		euler = StepEuler(euler, u, l, 0.01)
		rk4 = StepRK4(rk4, u, l, 0.01)
	}
	errEuler := euler.Pos.Dist(ref.Pos)
	errRK4 := rk4.Pos.Dist(ref.Pos)
	if errRK4 >= errEuler {
		t.Errorf("RK4 error %v not better than Euler %v", errRK4, errEuler)
	}
}

func TestBicycleStatePose(t *testing.T) {
	s := BicycleState{Pos: geom.V(1, 2), Heading: 0.5, V: 1}
	p := s.Pose()
	if p.Pos != s.Pos || p.Heading != s.Heading {
		t.Errorf("Pose = %+v", p)
	}
}
