package geom_test

import (
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/geom"
	"crossroads/internal/intersection"
)

// walkSegments is CompositePath.PoseAt as it was before the composite
// prepared its straight segments: a walk of Segments() that asks each
// segment's own PoseAt.
func walkSegments(c *geom.CompositePath, s float64) geom.Pose {
	segs := c.Segments()
	if len(segs) == 0 {
		return geom.Pose{}
	}
	s = geom.Clamp(s, 0, c.Length())
	prev, end := 0.0, 0.0
	for _, seg := range segs {
		end += seg.Length()
		if s <= end+geom.Eps {
			return seg.PoseAt(s - prev)
		}
		prev = end
	}
	last := segs[len(segs)-1]
	return last.PoseAt(last.Length())
}

func samePose(a, b geom.Pose) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		math.Float64bits(a.Heading) == math.Float64bits(b.Heading)
}

// TestCompositePoseAtMatchesSegmentWalk pins the composite's prepared
// straight segments to LinePath.PoseAt and ArcPath.PoseAt, bit for bit,
// on every movement of both geometries: 2,000 arc positions each, the
// ends, beyond them, and each join +-Eps among them.
func TestCompositePoseAtMatchesSegmentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []intersection.Config{intersection.ScaleModelConfig(), intersection.FullScaleConfig()} {
		x, err := intersection.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range x.Movements() {
			c, ok := m.Path.(*geom.CompositePath)
			if !ok {
				t.Fatalf("%v: path is %T, want a composite", m.ID, m.Path)
			}
			l := c.Length()
			ss := []float64{0, l, -geom.Eps, l + geom.Eps, -1, l + 1, math.Inf(-1), math.Inf(1), math.NaN()}
			join := 0.0
			for _, seg := range c.Segments() {
				join += seg.Length()
				ss = append(ss, join, join-geom.Eps, join+geom.Eps, math.Nextafter(join+geom.Eps, math.Inf(1)))
			}
			for len(ss) < 2000 {
				ss = append(ss, rng.Float64()*l)
			}
			for _, s := range ss {
				if got, want := c.PoseAt(s), walkSegments(c, s); !samePose(got, want) {
					t.Fatalf("%v at s=%v: PoseAt %+v, segment walk %+v", m.ID, s, got, want)
				}
			}
		}
	}
}
