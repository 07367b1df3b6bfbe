package geom

import "math"

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec2
}

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p Vec2) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Overlaps reports whether two boxes intersect (inclusive of touching).
func (b AABB) Overlaps(o AABB) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Expand returns the box grown by m on every side.
func (b AABB) Expand(m float64) AABB {
	return AABB{Min: V(b.Min.X-m, b.Min.Y-m), Max: V(b.Max.X+m, b.Max.Y+m)}
}

// Width returns the X extent of the box.
func (b AABB) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the Y extent of the box.
func (b AABB) Height() float64 { return b.Max.Y - b.Min.Y }

// Center returns the midpoint of the box.
func (b AABB) Center() Vec2 { return b.Min.Add(b.Max).Scale(0.5) }

// Rect is an oriented rectangle: the footprint of a vehicle (optionally
// inflated by its safety buffer). HalfL extends along the heading, HalfW
// perpendicular to it.
type Rect struct {
	Center  Vec2
	HalfL   float64 // half-length along the heading axis
	HalfW   float64 // half-width perpendicular to the heading axis
	Heading float64 // radians CCW from +X
}

// NewRect builds an oriented rectangle from a center pose and full
// dimensions.
func NewRect(center Vec2, length, width, heading float64) Rect {
	return Rect{Center: center, HalfL: length / 2, HalfW: width / 2, Heading: heading}
}

// Inflate returns the rectangle grown by dl on each end (front and rear) and
// dw on each side. This is how safety buffers are applied to a footprint.
func (r Rect) Inflate(dl, dw float64) Rect {
	r.HalfL += dl
	r.HalfW += dw
	return r
}

// Corners returns the four corners in CCW order starting from front-left.
func (r Rect) Corners() [4]Vec2 { return r.corners(Heading(r.Heading)) }

// corners places the four corners given the unit heading vector h.
func (r Rect) corners(h Vec2) [4]Vec2 {
	f := h.Scale(r.HalfL)
	s := h.Perp().Scale(r.HalfW)
	return [4]Vec2{
		r.Center.Add(f).Add(s), // front-left
		r.Center.Sub(f).Add(s), // rear-left
		r.Center.Sub(f).Sub(s), // rear-right
		r.Center.Add(f).Sub(s), // front-right
	}
}

// AABB returns the axis-aligned bounding box of the rectangle.
func (r Rect) AABB() AABB { return boundsOf(r.Corners()) }

// boundsOf returns the axis-aligned box around four corners.
func boundsOf(c [4]Vec2) AABB {
	min, max := c[0], c[0]
	for _, p := range c[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return AABB{Min: min, Max: max}
}

// ContainsPoint reports whether p lies inside the rectangle (inclusive).
func (r Rect) ContainsPoint(p Vec2) bool {
	d := p.Sub(r.Center).Rotate(-r.Heading)
	return math.Abs(d.X) <= r.HalfL+Eps && math.Abs(d.Y) <= r.HalfW+Eps
}

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return 4 * r.HalfL * r.HalfW }

// Radius returns the rectangle's bounding-circle radius, the one
// Intersects rejects on: r and o do not intersect when their centres are
// farther apart than r.Radius()+o.Radius() on either axis alone, as the
// distance between the centres is then farther still.
func (r Rect) Radius() float64 { return math.Hypot(r.HalfL, r.HalfW) }

// Intersects reports whether two oriented rectangles overlap, using the
// separating-axis theorem. Touching edges count as intersecting.
func (r Rect) Intersects(o Rect) bool {
	// Quick reject on bounding circles, before paying for the axes. The
	// radii are Radius, spelled out: an inlined method call would copy
	// both rectangles first.
	rr := math.Hypot(r.HalfL, r.HalfW)
	or := math.Hypot(o.HalfL, o.HalfW)
	if r.Center.Dist(o.Center) > rr+or {
		return false
	}
	// Only a's extents are needed for its own axes; b's wait until none
	// of those separates the two.
	a, b := r.prepare(rr), o.prepare(or)
	a.project()
	if a.separates(&b) {
		return false
	}
	b.project()
	return !b.separates(&a)
}

// PreparedRect is a Rect with its two axes, four corners, their extents
// on those axes and its bounding radius computed once, for rectangles
// tested against many others (the tiles of a reservation grid, or a
// vehicle body against them).
type PreparedRect struct {
	center  Vec2
	axes    [2]Vec2       // the heading and its left perpendicular
	corners [4]Vec2       // as Rect.Corners
	extents [2][2]float64 // min and max of the corners on each axis
	radius  float64       // bounding-circle radius
}

// Prepare computes the rectangle's axes, corners, extents and bounding
// radius with one Heading call.
func (r Rect) Prepare() PreparedRect {
	p := r.prepare(math.Hypot(r.HalfL, r.HalfW))
	p.project()
	return p
}

// prepare computes all but the extents.
func (r Rect) prepare(radius float64) PreparedRect {
	h := Heading(r.Heading)
	return PreparedRect{center: r.Center, axes: [2]Vec2{h, h.Perp()}, corners: r.corners(h), radius: radius}
}

// project computes the corners' extents on the rectangle's own axes.
func (p *PreparedRect) project() {
	for i, ax := range p.axes {
		p.extents[i][0], p.extents[i][1] = projectExtent(p.corners[:], ax)
	}
}

// AABB returns the axis-aligned bounding box of the rectangle.
func (p *PreparedRect) AABB() AABB { return boundsOf(p.corners) }

// Intersects reports whether two prepared rectangles overlap; it answers
// exactly as Rect.Intersects does on the rectangles they came from.
func (p *PreparedRect) Intersects(o *PreparedRect) bool {
	if p.center.Dist(o.center) > p.radius+o.radius {
		return false
	}
	return !p.separates(o) && !o.separates(p)
}

// separates reports whether o's projection lies more than Eps beyond p's
// extent on one of p's axes. p's extents are known, so only o's corners
// are projected.
func (p *PreparedRect) separates(o *PreparedRect) bool {
	for i, ax := range p.axes {
		lo, hi := projectExtent(o.corners[:], ax)
		if p.extents[i][1] < lo-Eps || hi < p.extents[i][0]-Eps {
			return true
		}
	}
	return false
}

// projectExtent returns the min/max projection of pts onto axis ax.
func projectExtent(pts []Vec2, ax Vec2) (min, max float64) {
	min = math.Inf(1)
	max = math.Inf(-1)
	for _, p := range pts {
		d := p.Dot(ax)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// PointAt returns the point at parameter t in [0,1] along the segment.
func (s Segment) PointAt(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// Intersect reports whether two segments intersect and, if they do and are
// not collinear, the intersection point and the parameters along each
// segment. Collinear-overlapping segments report ok=true with the midpoint
// of the overlap.
func (s Segment) Intersect(o Segment) (p Vec2, t, u float64, ok bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	diff := o.A.Sub(s.A)
	if math.Abs(denom) < Eps {
		// Parallel. Check collinearity.
		if math.Abs(diff.Cross(r)) > Eps {
			return Vec2{}, 0, 0, false
		}
		// Collinear: project o's endpoints onto s.
		rlen2 := r.NormSq()
		if rlen2 < Eps {
			// s is a point.
			if o.A.Dist(s.A) < Eps || onSegment(o, s.A) {
				return s.A, 0, 0, true
			}
			return Vec2{}, 0, 0, false
		}
		t0 := diff.Dot(r) / rlen2
		t1 := o.B.Sub(s.A).Dot(r) / rlen2
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		lo := math.Max(0, t0)
		hi := math.Min(1, t1)
		if lo > hi {
			return Vec2{}, 0, 0, false
		}
		tm := (lo + hi) / 2
		return s.PointAt(tm), tm, 0, true
	}
	t = diff.Cross(d) / denom
	u = diff.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return Vec2{}, 0, 0, false
	}
	return s.PointAt(t), t, u, true
}

// onSegment reports whether p lies on segment s (assumes collinearity has
// been established by the caller).
func onSegment(s Segment, p Vec2) bool {
	return p.X >= math.Min(s.A.X, s.B.X)-Eps && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		p.Y >= math.Min(s.A.Y, s.B.Y)-Eps && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// DistToPoint returns the distance from p to the closest point on the
// segment.
func (s Segment) DistToPoint(p Vec2) float64 {
	r := s.B.Sub(s.A)
	l2 := r.NormSq()
	if l2 < Eps {
		return p.Dist(s.A)
	}
	t := Clamp(p.Sub(s.A).Dot(r)/l2, 0, 1)
	return p.Dist(s.PointAt(t))
}
