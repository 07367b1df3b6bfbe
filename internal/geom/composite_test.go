package geom_test

import (
	"math"
	"math/rand"
	"sort"
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

// TestCompositePoseMovesAtMostArcPlusJoins pins the bound the world's
// safety check rests on: between two arc positions a composite's pose
// moves no farther than their arc distance plus JoinGaps. It samples
// every movement of both geometries and a composite with a 0.5 mm and a
// 0.8 mm join, densely around each join, and compares neighbouring and
// random pairs of samples.
func TestCompositePoseMovesAtMostArcPlusJoins(t *testing.T) {
	var paths []*geom.CompositePath
	for _, cfg := range []intersection.Config{intersection.ScaleModelConfig(), intersection.FullScaleConfig()} {
		x, err := intersection.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range x.Movements() {
			paths = append(paths, m.Path.(*geom.CompositePath))
		}
	}
	in := geom.LinePath{Start: geom.V(-5, 0), End: geom.V(0, 0)}
	arc := geom.ArcBetween(geom.V(0, 0.0005), 0, math.Pi/2, 2)
	out := arc.PoseAt(arc.Length()).Pos
	gapped := geom.NewCompositePath(in, arc, geom.LinePath{Start: out.Add(geom.V(0.0008, 0)), End: out.Add(geom.V(0.0008, 5))})
	if want := 0.0005 + 0.0008 + 2*geom.Eps; math.Abs(gapped.JoinGaps()-want) > 1e-12 {
		t.Fatalf("JoinGaps = %v, want %v", gapped.JoinGaps(), want)
	}
	paths = append(paths, gapped)
	rng := rand.New(rand.NewSource(9))
	for _, c := range paths {
		l := c.Length()
		var ss []float64
		join := 0.0
		for _, seg := range c.Segments() {
			join += seg.Length()
			for k := -20; k <= 20; k++ {
				ss = append(ss, join+float64(k)*geom.Eps/4)
			}
		}
		for len(ss) < 2000 {
			ss = append(ss, rng.Float64()*l)
		}
		sort.Float64s(ss)
		moves := func(s1, s2 float64) {
			d := c.PoseAt(s1).Pos.Dist(c.PoseAt(s2).Pos)
			if bound := math.Abs(s2-s1) + c.JoinGaps(); d > bound+1e-12 {
				t.Fatalf("pose moved %v between s=%v and s=%v, bound %v (JoinGaps %v)", d, s1, s2, bound, c.JoinGaps())
			}
		}
		for i := 1; i < len(ss); i++ {
			moves(ss[i-1], ss[i])
			moves(ss[rng.Intn(len(ss))], ss[i])
		}
	}
}
