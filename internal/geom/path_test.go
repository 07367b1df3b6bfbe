package geom

import (
	"math"
	"testing"
)

func TestLinePath(t *testing.T) {
	l := LinePath{Start: V(0, 0), End: V(3, 4)}
	if l.Length() != 5 {
		t.Errorf("Length = %v, want 5", l.Length())
	}
	p := l.PoseAt(2.5)
	if !p.Pos.ApproxEq(V(1.5, 2), 1e-12) {
		t.Errorf("PoseAt(2.5).Pos = %v", p.Pos)
	}
	if !almostEq(p.Heading, math.Atan2(4, 3), 1e-12) {
		t.Errorf("heading = %v", p.Heading)
	}
	// Clamping.
	if got := l.PoseAt(-1).Pos; !got.ApproxEq(V(0, 0), 1e-12) {
		t.Errorf("PoseAt(-1) = %v", got)
	}
	if got := l.PoseAt(99).Pos; !got.ApproxEq(V(3, 4), 1e-12) {
		t.Errorf("PoseAt(99) = %v", got)
	}
}

func TestArcPathQuarterCircleCCW(t *testing.T) {
	// Quarter circle radius 2 centered at origin, starting at (2,0) going CCW.
	a := ArcPath{Center: V(0, 0), Radius: 2, StartAngle: 0, Sweep: math.Pi / 2}
	if !almostEq(a.Length(), math.Pi, 1e-12) {
		t.Errorf("Length = %v, want pi", a.Length())
	}
	start := a.PoseAt(0)
	if !start.Pos.ApproxEq(V(2, 0), 1e-12) {
		t.Errorf("start pos = %v", start.Pos)
	}
	if !almostEq(start.Heading, math.Pi/2, 1e-12) {
		t.Errorf("start heading = %v, want pi/2", start.Heading)
	}
	end := a.PoseAt(a.Length())
	if !end.Pos.ApproxEq(V(0, 2), 1e-9) {
		t.Errorf("end pos = %v, want (0,2)", end.Pos)
	}
	if !almostEq(NormalizeAngle(end.Heading), math.Pi, 1e-9) {
		t.Errorf("end heading = %v, want pi", end.Heading)
	}
}

func TestArcPathCW(t *testing.T) {
	// Start at (0,2) on circle at origin, sweep -90deg (CW) to (2,0).
	a := ArcPath{Center: V(0, 0), Radius: 2, StartAngle: math.Pi / 2, Sweep: -math.Pi / 2}
	start := a.PoseAt(0)
	if !start.Pos.ApproxEq(V(0, 2), 1e-12) {
		t.Errorf("start pos = %v", start.Pos)
	}
	if !almostEq(start.Heading, 0, 1e-12) {
		t.Errorf("start heading = %v, want 0", start.Heading)
	}
	end := a.PoseAt(a.Length())
	if !end.Pos.ApproxEq(V(2, 0), 1e-9) {
		t.Errorf("end pos = %v", end.Pos)
	}
}

func TestArcPathMidpointOnCircle(t *testing.T) {
	a := ArcPath{Center: V(1, 1), Radius: 3, StartAngle: 0.3, Sweep: 1.7}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := a.PoseAt(a.Length() * frac)
		if d := p.Pos.Dist(a.Center); !almostEq(d, 3, 1e-9) {
			t.Errorf("point at frac %v is at radius %v, want 3", frac, d)
		}
	}
}

func TestArcBetweenLeftTurn(t *testing.T) {
	// Heading east at origin, turn left 90deg with radius 1:
	// should end at (1, 1) heading north.
	a := ArcBetween(V(0, 0), 0, math.Pi/2, 1)
	end := a.PoseAt(a.Length())
	if !end.Pos.ApproxEq(V(1, 1), 1e-9) {
		t.Errorf("left turn end = %v, want (1,1)", end.Pos)
	}
	if !almostEq(NormalizeAngle(end.Heading), math.Pi/2, 1e-9) {
		t.Errorf("left turn end heading = %v, want pi/2", end.Heading)
	}
	start := a.PoseAt(0)
	if !start.Pos.ApproxEq(V(0, 0), 1e-9) || !almostEq(start.Heading, 0, 1e-9) {
		t.Errorf("left turn start = %+v", start)
	}
}

func TestArcBetweenRightTurn(t *testing.T) {
	// Heading east at origin, turn right 90deg with radius 1:
	// should end at (1, -1) heading south.
	a := ArcBetween(V(0, 0), 0, -math.Pi/2, 1)
	end := a.PoseAt(a.Length())
	if !end.Pos.ApproxEq(V(1, -1), 1e-9) {
		t.Errorf("right turn end = %v, want (1,-1)", end.Pos)
	}
	if !almostEq(NormalizeAngle(end.Heading), -math.Pi/2, 1e-9) {
		t.Errorf("right turn end heading = %v, want -pi/2", end.Heading)
	}
}

func TestCompositePath(t *testing.T) {
	// Straight 2m east, then quarter-turn left radius 1, then 1m north.
	l1 := LinePath{V(0, 0), V(2, 0)}
	arc := ArcBetween(V(2, 0), 0, math.Pi/2, 1)
	l2 := LinePath{arc.PoseAt(arc.Length()).Pos, arc.PoseAt(arc.Length()).Pos.Add(V(0, 1))}
	c := NewCompositePath(l1, arc, l2)

	wantLen := 2 + math.Pi/2 + 1
	if !almostEq(c.Length(), wantLen, 1e-9) {
		t.Errorf("Length = %v, want %v", c.Length(), wantLen)
	}
	// Middle of first segment.
	if p := c.PoseAt(1); !p.Pos.ApproxEq(V(1, 0), 1e-9) {
		t.Errorf("PoseAt(1) = %v", p.Pos)
	}
	// End.
	if p := c.PoseAt(c.Length()); !p.Pos.ApproxEq(V(3, 2), 1e-9) {
		t.Errorf("end = %v, want (3,2)", p.Pos)
	}
	// Continuity: sample densely, consecutive points must be close.
	poses := SamplePath(c, 200)
	for i := 1; i < len(poses); i++ {
		if d := poses[i].Pos.Dist(poses[i-1].Pos); d > c.Length()/200*1.5+1e-9 {
			t.Fatalf("discontinuity at sample %d: %v", i, d)
		}
	}
	if len(c.Segments()) != 3 {
		t.Errorf("Segments = %d", len(c.Segments()))
	}
}

func TestCompositePathPanicsOnGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on discontinuous composite")
		}
	}()
	NewCompositePath(LinePath{V(0, 0), V(1, 0)}, LinePath{V(5, 5), V(6, 5)})
}

func TestCompositePathEmpty(t *testing.T) {
	c := &CompositePath{}
	if c.Length() != 0 {
		t.Errorf("empty length = %v", c.Length())
	}
	if p := c.PoseAt(1); p != (Pose{}) {
		t.Errorf("empty PoseAt = %+v", p)
	}
}

func TestSamplePathEndpoints(t *testing.T) {
	l := LinePath{V(0, 0), V(10, 0)}
	ps := SamplePath(l, 5)
	if len(ps) != 6 {
		t.Fatalf("len = %d, want 6", len(ps))
	}
	if !ps[0].Pos.ApproxEq(V(0, 0), 1e-12) || !ps[5].Pos.ApproxEq(V(10, 0), 1e-12) {
		t.Errorf("endpoints = %v, %v", ps[0].Pos, ps[5].Pos)
	}
	// n<1 clamps to 1.
	if got := SamplePath(l, 0); len(got) != 2 {
		t.Errorf("SamplePath(0) len = %d", len(got))
	}
}
