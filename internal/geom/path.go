package geom

import (
	"fmt"
	"math"
)

// Path is a drivable curve parameterized by arc length s in [0, Length()].
// Vehicles in the simulator move along paths; their 1-D longitudinal state
// (position along the path) is converted to a 2-D pose with PoseAt.
type Path interface {
	// Length returns the total arc length of the path in meters.
	Length() float64
	// PoseAt returns the position and tangent heading at arc length s.
	// s is clamped to [0, Length()].
	PoseAt(s float64) Pose
}

// LinePath is a straight path from Start to End.
type LinePath struct {
	Start, End Vec2
}

// Length returns the straight-line distance from Start to End.
func (l LinePath) Length() float64 { return l.Start.Dist(l.End) }

// PoseAt returns the pose at arc length s along the line.
func (l LinePath) PoseAt(s float64) Pose {
	length := l.Length()
	dir := l.End.Sub(l.Start).Unit()
	s = Clamp(s, 0, length)
	return Pose{Pos: l.Start.Add(dir.Scale(s)), Heading: dir.Angle()}
}

// ArcPath is a circular arc. The arc starts at the point at angle
// StartAngle on the circle and sweeps Sweep radians (positive =
// counterclockwise). The vehicle heading is tangent to the circle in the
// direction of travel.
type ArcPath struct {
	Center     Vec2
	Radius     float64
	StartAngle float64 // angle of the starting point on the circle
	Sweep      float64 // signed sweep; positive CCW
}

// Length returns the arc length |Sweep| * Radius.
func (a ArcPath) Length() float64 { return math.Abs(a.Sweep) * a.Radius }

// PoseAt returns the pose at arc length s along the arc.
func (a ArcPath) PoseAt(s float64) Pose {
	length := a.Length()
	s = Clamp(s, 0, length)
	frac := 0.0
	if length > Eps {
		frac = s / length
	}
	ang := a.StartAngle + a.Sweep*frac
	pos := a.Center.Add(Heading(ang).Scale(a.Radius))
	// Tangent heading: +90deg from radius if CCW, -90deg if CW.
	h := ang + math.Pi/2
	if a.Sweep < 0 {
		h = ang - math.Pi/2
	}
	return Pose{Pos: pos, Heading: NormalizeAngle(h)}
}

// ArcBetween constructs the circular arc that starts at 'from' with heading
// fromHeading and turns by turnAngle radians (positive = left/CCW) with the
// given radius. It returns the arc path.
func ArcBetween(from Vec2, fromHeading, turnAngle, radius float64) ArcPath {
	if turnAngle >= 0 {
		// Left turn: center is 90deg left of heading.
		center := from.Add(Heading(fromHeading + math.Pi/2).Scale(radius))
		start := from.Sub(center).Angle()
		return ArcPath{Center: center, Radius: radius, StartAngle: start, Sweep: turnAngle}
	}
	// Right turn: center is 90deg right of heading.
	center := from.Add(Heading(fromHeading - math.Pi/2).Scale(radius))
	start := from.Sub(center).Angle()
	return ArcPath{Center: center, Radius: radius, StartAngle: start, Sweep: turnAngle}
}

// CompositePath chains several paths end to end. The caller is responsible
// for ensuring geometric continuity; Append checks it.
type CompositePath struct {
	segs []Path
	// lines holds each straight segment's prepared form, beside segs.
	lines  []preparedLine
	cumLen []float64 // cumulative length up to the *end* of segs[i]
	total  float64
	// joins bounds how far a pose jumps at the joins: each join's gap,
	// which Append accepts up to 1 mm, plus the Eps by which PoseAt's
	// segment lookup runs past the join.
	joins float64
}

// preparedLine is a LinePath with its direction, length and heading
// computed once: the values LinePath.PoseAt derives on every call, so its
// poses are LinePath.PoseAt's bit for bit.
type preparedLine struct {
	ok      bool // the segment is a LinePath
	start   Vec2
	dir     Vec2
	length  float64
	heading float64
}

func prepareLine(p Path) preparedLine {
	l, ok := p.(LinePath)
	if !ok {
		return preparedLine{}
	}
	dir := l.End.Sub(l.Start).Unit()
	return preparedLine{ok: true, start: l.Start, dir: dir, length: l.Length(), heading: dir.Angle()}
}

func (l *preparedLine) poseAt(s float64) Pose {
	s = Clamp(s, 0, l.length)
	return Pose{Pos: l.start.Add(l.dir.Scale(s)), Heading: l.heading}
}

// NewCompositePath builds a composite from the given segments in order.
// It panics if consecutive segments are discontinuous by more than 1 mm,
// since that indicates a construction bug in intersection geometry.
func NewCompositePath(segs ...Path) *CompositePath {
	c := &CompositePath{}
	for _, s := range segs {
		c.Append(s)
	}
	return c
}

// Append adds a segment to the end of the composite path.
func (c *CompositePath) Append(p Path) {
	if len(c.segs) > 0 {
		prevEnd := c.segs[len(c.segs)-1].PoseAt(math.Inf(1)).Pos
		newStart := p.PoseAt(0).Pos
		gap := prevEnd.Dist(newStart)
		if gap > 1e-3 {
			panic(fmt.Sprintf("geom: discontinuous composite path: %v -> %v", prevEnd, newStart))
		}
		c.joins += gap + Eps
	}
	c.segs = append(c.segs, p)
	c.lines = append(c.lines, prepareLine(p))
	c.total += p.Length()
	c.cumLen = append(c.cumLen, c.total)
}

// Length returns the total arc length of the composite.
func (c *CompositePath) Length() float64 { return c.total }

// JoinGaps returns the summed jumps of the composite's joins: between any
// two arc positions, PoseAt's position moves at most their arc distance
// plus JoinGaps.
func (c *CompositePath) JoinGaps() float64 { return c.joins }

// PoseAt returns the pose at arc length s along the composite.
func (c *CompositePath) PoseAt(s float64) Pose {
	if len(c.segs) == 0 {
		return Pose{}
	}
	s = Clamp(s, 0, c.total)
	prev := 0.0
	for i := range c.segs {
		if s <= c.cumLen[i]+Eps {
			return c.segPoseAt(i, s-prev)
		}
		prev = c.cumLen[i]
	}
	last := len(c.segs) - 1
	return c.segPoseAt(last, c.segs[last].Length())
}

// segPoseAt returns segment i's pose at arc length s along it.
func (c *CompositePath) segPoseAt(i int, s float64) Pose {
	if l := &c.lines[i]; l.ok {
		return l.poseAt(s)
	}
	return c.segs[i].PoseAt(s)
}

// Segments returns the component paths.
func (c *CompositePath) Segments() []Path { return c.segs }

// SamplePath returns n+1 poses evenly spaced in arc length along p,
// including both endpoints. n must be >= 1.
func SamplePath(p Path, n int) []Pose {
	if n < 1 {
		n = 1
	}
	out := make([]Pose, n+1)
	l := p.Length()
	for i := 0; i <= n; i++ {
		out[i] = p.PoseAt(l * float64(i) / float64(n))
	}
	return out
}
