package intersection

import (
	"fmt"
	"math"
	"testing"

	"crossroads/internal/geom"
)

func buildScaleTable(t *testing.T) (*Intersection, *ConflictTable) {
	t.Helper()
	x := mustNew(t, ScaleModelConfig())
	tab, err := BuildConflictTable(x, 0.568, 0.296, 0.05)
	if err != nil {
		t.Fatalf("BuildConflictTable: %v", err)
	}
	return x, tab
}

func TestCrossingStraightsConflict(t *testing.T) {
	_, tab := buildScaleTable(t)
	e := MovementID{Approach: East, Lane: 0, Turn: Straight}
	n := MovementID{Approach: North, Lane: 0, Turn: Straight}
	if !tab.Conflicts(e, n) {
		t.Fatal("perpendicular straights do not conflict")
	}
	z, ok := tab.Zone(e, n)
	if !ok {
		t.Fatal("no zone")
	}
	// The conflict must lie around the box crossing (EnterS=3, ExitS=4.2),
	// allowing for footprint margins.
	if z.AStart < 2 || z.AEnd > 5 {
		t.Errorf("zone A interval [%v, %v] implausible", z.AStart, z.AEnd)
	}
	if z.AEnd <= z.AStart || z.BEnd <= z.BStart {
		t.Errorf("degenerate zone %+v", z)
	}
}

func TestZoneSwapConsistency(t *testing.T) {
	_, tab := buildScaleTable(t)
	e := MovementID{Approach: East, Lane: 0, Turn: Straight}
	n := MovementID{Approach: North, Lane: 0, Turn: Straight}
	zen, _ := tab.Zone(e, n)
	zne, _ := tab.Zone(n, e)
	if zen.AStart != zne.BStart || zen.AEnd != zne.BEnd ||
		zen.BStart != zne.AStart || zen.BEnd != zne.AEnd {
		t.Errorf("swapped zones inconsistent: %+v vs %+v", zen, zne)
	}
}

func TestOpposingStraightsDoNotConflict(t *testing.T) {
	// Single-lane scale model: east and west straights use separate lane
	// centerlines 0.6 m apart, footprints 0.296 m wide: no overlap.
	_, tab := buildScaleTable(t)
	e := MovementID{Approach: East, Lane: 0, Turn: Straight}
	w := MovementID{Approach: West, Lane: 0, Turn: Straight}
	if tab.Conflicts(e, w) {
		t.Error("opposing straights conflict; lane separation broken")
	}
}

func TestSameApproachSharedCorridorInTable(t *testing.T) {
	// Movements from the same entry lane share the corridor near the box
	// entry before their paths diverge: that is a real conflict the table
	// must carry so the IM serializes them through the box.
	_, tab := buildScaleTable(t)
	s := MovementID{Approach: East, Lane: 0, Turn: Straight}
	l := MovementID{Approach: East, Lane: 0, Turn: Left}
	z, ok := tab.Zone(s, l)
	if !ok {
		t.Fatal("same-lane straight and left turn do not conflict")
	}
	// The shared corridor starts at (or just before) the box entry.
	if z.AStart > 3.1 {
		t.Errorf("shared corridor zone starts at %v, expected near entry (3)", z.AStart)
	}
}

func TestLeftTurnConflictsWithOpposingStraight(t *testing.T) {
	_, tab := buildScaleTable(t)
	el := MovementID{Approach: East, Lane: 0, Turn: Left}
	ws := MovementID{Approach: West, Lane: 0, Turn: Straight}
	if !tab.Conflicts(el, ws) {
		t.Error("eastbound left turn must conflict with westbound straight")
	}
}

func TestRightTurnsFromAdjacentApproaches(t *testing.T) {
	// Eastbound right turn hugs the SW corner (exits south at x=-0.3).
	// Westbound straight passes along y=+0.3: should not conflict.
	_, tab := buildScaleTable(t)
	er := MovementID{Approach: East, Lane: 0, Turn: Right}
	ws := MovementID{Approach: West, Lane: 0, Turn: Straight}
	if tab.Conflicts(er, ws) {
		t.Error("eastbound right turn should clear westbound straight")
	}
	// But eastbound right turn crosses... it merges onto the southbound
	// exit; the northbound straight passes through x=-0.3 on its way north
	// (northbound lane center x=+0.3? No: northbound keeps right => x=+0.3).
	// Check instead that it conflicts with southbound straight only if
	// their paths meet: southbound straight runs along x=-0.3 heading -Y,
	// exactly the lane the right turn merges into — but same *exit* road is
	// excluded? No: different approaches, so it IS in the table.
	ss := MovementID{Approach: South, Lane: 0, Turn: Straight}
	_ = ss
	if !tab.Conflicts(er, MovementID{Approach: South, Lane: 0, Turn: Straight}) {
		t.Error("eastbound right merging south must conflict with southbound straight")
	}
}

func TestConflictSymmetricAcrossRotation(t *testing.T) {
	_, tab := buildScaleTable(t)
	// East-straight vs North-straight zone should mirror North-straight vs
	// West-straight by 90-degree rotation symmetry: equal interval lengths.
	z1, ok1 := tab.Zone(
		MovementID{Approach: East, Lane: 0, Turn: Straight},
		MovementID{Approach: North, Lane: 0, Turn: Straight})
	z2, ok2 := tab.Zone(
		MovementID{Approach: North, Lane: 0, Turn: Straight},
		MovementID{Approach: West, Lane: 0, Turn: Straight})
	if !ok1 || !ok2 {
		t.Fatal("expected conflicts missing")
	}
	if !almostEq(z1.AEnd-z1.AStart, z2.AEnd-z2.AStart, 0.11) {
		t.Errorf("rotated zone lengths differ: %v vs %v", z1.AEnd-z1.AStart, z2.AEnd-z2.AStart)
	}
}

func TestBiggerFootprintWidensZones(t *testing.T) {
	x := mustNew(t, ScaleModelConfig())
	small, err := BuildConflictTable(x, 0.568, 0.296, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate by the paper's VT-IM buffers: the zone must grow.
	big, err := BuildConflictTable(x, 0.568+2*0.078, 0.296, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e := MovementID{Approach: East, Lane: 0, Turn: Straight}
	n := MovementID{Approach: North, Lane: 0, Turn: Straight}
	zs, _ := small.Zone(e, n)
	zb, _ := big.Zone(e, n)
	if (zb.AEnd - zb.AStart) <= (zs.AEnd - zs.AStart) {
		t.Errorf("inflated footprint did not widen zone: %v vs %v",
			zb.AEnd-zb.AStart, zs.AEnd-zs.AStart)
	}
	if l, w := big.Footprint(); l != 0.568+2*0.078 || w != 0.296 {
		t.Errorf("Footprint = %v, %v", l, w)
	}
}

func TestBuildConflictTableValidation(t *testing.T) {
	x := mustNew(t, ScaleModelConfig())
	if _, err := BuildConflictTable(x, 0, 0.3, 0.05); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := BuildConflictTable(x, 0.5, -1, 0.05); err == nil {
		t.Error("negative width accepted")
	}
	// ds <= 0 falls back to default.
	tab, err := BuildConflictTable(x, 0.568, 0.296, 0)
	if err != nil || tab.NumZones() == 0 {
		t.Errorf("default ds failed: %v, zones=%d", err, tab.NumZones())
	}
}

func TestZoneUnknownPair(t *testing.T) {
	_, tab := buildScaleTable(t)
	if _, ok := tab.Zone(
		MovementID{Approach: East, Lane: 7, Turn: Straight},
		MovementID{Approach: North, Lane: 0, Turn: Straight}); ok {
		t.Error("unknown movement pair reported conflicting")
	}
}

func TestNumZonesPlausible(t *testing.T) {
	_, tab := buildScaleTable(t)
	// 12 movements, 66 pairs; same-approach pairs excluded (4 approaches x
	// C(3,2)=3 -> 12 excluded), leaving 54 candidate pairs. A single-lane
	// four-way has many crossings: expect a healthy subset to conflict.
	n := tab.NumZones()
	if n < 10 || n > 54 {
		t.Errorf("NumZones = %d, implausible", n)
	}
}

// refSweepConflict is sweepConflict as it was written over geom.Rect,
// building both rectangles' axes on every pair test.
func refSweepConflict(ma, mb *Movement, vehLen, vehWid, ds float64) (ConflictZone, bool) {
	margin := math.Hypot(vehLen, vehWid) / 2
	aLo := math.Max(0, ma.EnterS-margin)
	aHi := math.Min(ma.Length, ma.ExitS+margin)
	bLo := math.Max(0, mb.EnterS-margin)
	bHi := math.Min(mb.Length, mb.ExitS+margin)

	type sample struct {
		s    float64
		rect geom.Rect
	}
	sampleRange := func(m *Movement, lo, hi float64) []sample {
		n := int(math.Ceil((hi-lo)/ds)) + 1
		out := make([]sample, 0, n+1)
		for i := 0; i <= n; i++ {
			s := lo + (hi-lo)*float64(i)/float64(n)
			p := m.Path.PoseAt(s)
			out = append(out, sample{s: s, rect: geom.NewRect(p.Pos, vehLen, vehWid, p.Heading)})
		}
		return out
	}
	as := sampleRange(ma, aLo, aHi)
	bs := sampleRange(mb, bLo, bHi)

	zone := ConflictZone{
		AStart: math.Inf(1), AEnd: math.Inf(-1),
		BStart: math.Inf(1), BEnd: math.Inf(-1),
	}
	found := false
	for _, sa := range as {
		for _, sb := range bs {
			if sa.rect.Intersects(sb.rect) {
				found = true
				zone.AStart = math.Min(zone.AStart, sa.s)
				zone.AEnd = math.Max(zone.AEnd, sa.s)
				zone.BStart = math.Min(zone.BStart, sb.s)
				zone.BEnd = math.Max(zone.BEnd, sb.s)
			}
		}
	}
	if !found {
		return ConflictZone{}, false
	}
	zone.AStart = math.Max(0, zone.AStart-ds)
	zone.AEnd = math.Min(ma.Length, zone.AEnd+ds)
	zone.BStart = math.Max(0, zone.BStart-ds)
	zone.BEnd = math.Min(mb.Length, zone.BEnd+ds)
	return zone, true
}

// TestSweepConflictMatchesReference pins the prepared-sample sweep to the
// reference copy, zone for zone and bit for bit, on the scale model and
// the one-lane full-scale geometry with their planning footprints. The
// two-lane full-scale build is pinned by internal/sim's golden.
func TestSweepConflictMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name           string
		cfg            Config
		vehLen, vehWid float64
		ds             float64
	}{
		{"scale", ScaleModelConfig(), 0.568 + 2*0.078, 0.296, 0.05},
		{"fullscale", FullScaleConfig(), 4.5 + 2*0.315, 1.8, 0.1},
	} {
		x := mustNew(t, c.cfg)
		ids := x.MovementIDs()
		conflicts := 0
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				ma, mb := x.Movement(ids[i]), x.Movement(ids[j])
				got, ok := sweepConflict(ma, mb, c.vehLen, c.vehWid, c.ds, x.Box())
				want, wantOK := refSweepConflict(ma, mb, c.vehLen, c.vehWid, c.ds)
				if ok != wantOK || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %v/%v: zone %+v %v, reference %+v %v", c.name, ids[i], ids[j], got, ok, want, wantOK)
				}
				if ok {
					conflicts++
				}
			}
		}
		if conflicts == 0 {
			t.Fatalf("%s: no conflicting pair compared", c.name)
		}
	}
}
