package intersection

import (
	"fmt"
	"math"
	"sync"

	"crossroads/internal/geom"
)

// ConflictZone describes where two movements' swept footprints can overlap:
// while vehicle A's center is within [AStart, AEnd] on movement A's path and
// vehicle B's center is within [BStart, BEnd] on movement B's, their
// (buffer-inflated) footprints may collide. The velocity-transaction IMs
// keep these zones mutually exclusive in time.
type ConflictZone struct {
	AStart, AEnd float64
	BStart, BEnd float64
}

// Swapped returns the zone from B's perspective.
func (z ConflictZone) Swapped() ConflictZone {
	return ConflictZone{AStart: z.BStart, AEnd: z.BEnd, BStart: z.AStart, BEnd: z.AEnd}
}

// movementPair is a canonical (ordered) pair key.
type movementPair struct{ a, b MovementID }

// ConflictTable caches, for every pair of movements, whether they conflict
// inside the box and over which arc-length intervals. It is computed once
// per (vehicle footprint, buffer) configuration — the paper's IMs differ
// exactly in how much buffer they must add, so each IM builds its own table.
type ConflictTable struct {
	zones  map[movementPair]ConflictZone
	vehLen float64
	vehWid float64
}

// BuildConflictTable samples every pair of movements through the box using
// footprints of the given dimensions (vehicle body already inflated by the
// caller's safety buffer) and SAT rectangle-overlap tests at arc-length
// resolution ds. Every distinct pair is considered — including pairs from
// the same approach lane, whose shared corridor inside the box must be
// serialized just like a crossing conflict.
func BuildConflictTable(x *Intersection, vehLen, vehWid, ds float64) (*ConflictTable, error) {
	if vehLen <= 0 || vehWid <= 0 {
		return nil, fmt.Errorf("intersection: footprint %vx%v must be positive", vehLen, vehWid)
	}
	if ds <= 0 {
		ds = 0.05
	}
	t := &ConflictTable{
		zones:  make(map[movementPair]ConflictZone),
		vehLen: vehLen,
		vehWid: vehWid,
	}
	ids := x.MovementIDs()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			ma, mb := x.Movement(ids[i]), x.Movement(ids[j])
			zone, ok := sweepConflict(ma, mb, vehLen, vehWid, ds, x.Box())
			if ok {
				t.zones[movementPair{ids[i], ids[j]}] = zone
			}
		}
	}
	return t, nil
}

// tableCache memoizes conflict tables by their full build input. The
// geometry is a pure function of the intersection Config, and a built table
// is immutable, so one instance can be shared across schedulers, runs, and
// goroutines. Experiment sweeps construct the same few (config, footprint)
// combinations hundreds of times; without the cache the SAT sweep dominates
// whole-run cost. The cache is unbounded, but distinct keys are as rare as
// distinct experiment geometries.
var tableCache sync.Map // tableCacheKey -> *ConflictTable

type tableCacheKey struct {
	cfg            Config
	vehLen, vehWid float64
	ds             float64
}

// CachedConflictTable returns BuildConflictTable's result for x's geometry
// and the given footprint, memoized process-wide. Schedulers use this
// instead of rebuilding: two intersections with equal Configs have
// identical geometry, and the returned table must not be mutated.
func CachedConflictTable(x *Intersection, vehLen, vehWid, ds float64) (*ConflictTable, error) {
	if ds <= 0 {
		ds = 0.05 // normalize before keying, mirroring BuildConflictTable
	}
	key := tableCacheKey{cfg: x.Config(), vehLen: vehLen, vehWid: vehWid, ds: ds}
	if v, ok := tableCache.Load(key); ok {
		return v.(*ConflictTable), nil
	}
	t, err := BuildConflictTable(x, vehLen, vehWid, ds)
	if err != nil {
		return nil, err
	}
	v, _ := tableCache.LoadOrStore(key, t)
	return v.(*ConflictTable), nil
}

// sweepConflict samples both movements over a slightly-expanded box region
// and reports the bounding arc-length intervals where footprints overlap.
func sweepConflict(ma, mb *Movement, vehLen, vehWid, ds float64, box geom.AABB) (ConflictZone, bool) {
	// Sample range: box crossing expanded by half the footprint diagonal
	// so bumper overlaps just outside the box edge are caught.
	margin := math.Hypot(vehLen, vehWid) / 2
	aLo := math.Max(0, ma.EnterS-margin)
	aHi := math.Min(ma.Length, ma.ExitS+margin)
	bLo := math.Max(0, mb.EnterS-margin)
	bHi := math.Min(mb.Length, mb.ExitS+margin)

	// Each sample is prepared once: it meets every sample of the other
	// movement.
	type sample struct {
		s    float64
		rect geom.PreparedRect
	}
	sampleRange := func(m *Movement, lo, hi float64) []sample {
		n := int(math.Ceil((hi-lo)/ds)) + 1
		out := make([]sample, 0, n+1)
		for i := 0; i <= n; i++ {
			s := lo + (hi-lo)*float64(i)/float64(n)
			p := m.Path.PoseAt(s)
			out = append(out, sample{s: s, rect: geom.NewRect(p.Pos, vehLen, vehWid, p.Heading).Prepare()})
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
	for i := range as {
		sa := &as[i]
		for j := range bs {
			sb := &bs[j]
			if sa.rect.Intersects(&sb.rect) {
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
	// Pad by one sample step: the true extremes lie within ds of the
	// sampled ones.
	zone.AStart = math.Max(0, zone.AStart-ds)
	zone.AEnd = math.Min(ma.Length, zone.AEnd+ds)
	zone.BStart = math.Max(0, zone.BStart-ds)
	zone.BEnd = math.Min(mb.Length, zone.BEnd+ds)
	return zone, true
}

// Zone returns the conflict zone between movements a and b from a's
// perspective, and whether they conflict at all.
func (t *ConflictTable) Zone(a, b MovementID) (ConflictZone, bool) {
	if z, ok := t.zones[movementPair{a, b}]; ok {
		return z, true
	}
	if z, ok := t.zones[movementPair{b, a}]; ok {
		return z.Swapped(), true
	}
	return ConflictZone{}, false
}

// Conflicts reports whether two movements have any conflict zone.
func (t *ConflictTable) Conflicts(a, b MovementID) bool {
	_, ok := t.Zone(a, b)
	return ok
}

// NumZones returns the number of conflicting movement pairs.
func (t *ConflictTable) NumZones() int { return len(t.zones) }

// Footprint returns the (length, width) the table was built with.
func (t *ConflictTable) Footprint() (vehLen, vehWid float64) { return t.vehLen, t.vehWid }
