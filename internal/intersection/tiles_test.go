package intersection

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"crossroads/internal/geom"
)

func newGrid(t *testing.T, n int) *TileGrid {
	t.Helper()
	g, err := NewTileGrid(geom.AABB{Min: geom.V(-0.6, -0.6), Max: geom.V(0.6, 0.6)}, n)
	if err != nil {
		t.Fatalf("NewTileGrid: %v", err)
	}
	return g
}

// marked returns the indices of the tiles Mark sets for r, ascending.
func marked(g *TileGrid, r geom.Rect) []int {
	set := make([]uint64, g.Words())
	g.Mark(set, r)
	var out []int
	for k := 0; k < g.NumTiles(); k++ {
		if set[k>>6]&(1<<(k&63)) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// occupancy builds a footprint from a step -> tiles map.
func occupancy(g *TileGrid, steps map[int64][]int) Occupancy {
	o := g.NewOccupancy(0)
	keys := make([]int64, 0, len(steps))
	for s := range steps {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, s := range keys {
		row := make([]uint64, g.Words())
		for _, tl := range steps[s] {
			row[tl>>6] |= 1 << (tl & 63)
		}
		o.Or(s, row)
	}
	return o
}

func TestTileGridConstruction(t *testing.T) {
	g := newGrid(t, 6)
	if g.N() != 6 || g.NumTiles() != 36 || g.Words() != 1 {
		t.Errorf("N=%d NumTiles=%d Words=%d", g.N(), g.NumTiles(), g.Words())
	}
	if w := newGrid(t, 12).Words(); w != 3 {
		t.Errorf("12x12 grid Words = %d, want 3", w)
	}
	tile := g.TileAABB(0, 0)
	if !tile.Min.ApproxEq(geom.V(-0.6, -0.6), 1e-12) {
		t.Errorf("tile(0,0).Min = %v", tile.Min)
	}
	if !almostEq(tile.Width(), 0.2, 1e-12) {
		t.Errorf("tile width = %v", tile.Width())
	}
	last := g.TileAABB(5, 5)
	if !last.Max.ApproxEq(geom.V(0.6, 0.6), 1e-9) {
		t.Errorf("tile(5,5).Max = %v", last.Max)
	}
	if g.TileIndex(2, 3) != 3*6+2 {
		t.Errorf("TileIndex = %d", g.TileIndex(2, 3))
	}
}

func TestNewTileGridValidation(t *testing.T) {
	box := geom.AABB{Min: geom.V(0, 0), Max: geom.V(1, 1)}
	if _, err := NewTileGrid(box, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewTileGrid(box, MaxTileGridN+1); err == nil {
		t.Errorf("n=%d accepted", MaxTileGridN+1)
	}
	if _, err := NewTileGrid(box, MaxTileGridN); err != nil {
		t.Errorf("n=%d: %v", MaxTileGridN, err)
	}
	if _, err := NewTileGrid(geom.AABB{}, 4); err == nil {
		t.Error("degenerate box accepted")
	}
}

func TestTilesForSmallRect(t *testing.T) {
	g := newGrid(t, 6)
	// A small rect fully inside tile (3, 3): center (0.1, 0.1), tiles span
	// [-0.6+3*0.2, -0.6+4*0.2] = [0, 0.2].
	r := geom.NewRect(geom.V(0.1, 0.1), 0.05, 0.05, 0)
	tiles := marked(g, r)
	if len(tiles) != 1 || tiles[0] != g.TileIndex(3, 3) {
		t.Errorf("tiles = %v, want [%d]", tiles, g.TileIndex(3, 3))
	}
}

func TestTilesForSpanningRect(t *testing.T) {
	g := newGrid(t, 6)
	// A vehicle-sized rect centered at origin spans the four central tiles.
	r := geom.NewRect(geom.V(0, 0), 0.568, 0.296, 0)
	if tiles := marked(g, r); len(tiles) < 4 {
		t.Errorf("central vehicle covers %d tiles, want >= 4: %v", len(tiles), tiles)
	}
}

func TestTilesForOutsideBox(t *testing.T) {
	g := newGrid(t, 6)
	r := geom.NewRect(geom.V(5, 5), 0.5, 0.5, 0)
	set := make([]uint64, g.Words())
	if g.Mark(set, r) || set[0] != 0 {
		t.Errorf("outside rect marked tiles %b", set[0])
	}
}

func TestTilesForRotatedRect(t *testing.T) {
	g := newGrid(t, 12)
	// A thin diagonal rect: AABB covers many tiles but SAT should exclude
	// the far corners of its bounding box.
	r := geom.NewRect(geom.V(0, 0), 1.0, 0.05, 0.785398) // 45 degrees
	diag := marked(g, r)
	aabbCount := 0
	bb := r.AABB()
	for j := 0; j < g.N(); j++ {
		for i := 0; i < g.N(); i++ {
			if g.TileAABB(i, j).Overlaps(bb) {
				aabbCount++
			}
		}
	}
	if len(diag) >= aabbCount {
		t.Errorf("SAT pruning ineffective: %d vs AABB %d", len(diag), aabbCount)
	}
	if len(diag) == 0 {
		t.Error("diagonal rect found no tiles")
	}
}

// refIntersects is the separating-axis test as first written: the
// bounding circles reject on Dist, then every axis and corner is
// recomputed from the headings and both rectangles are projected onto
// all four axes.
func refIntersects(r, o geom.Rect) bool {
	rr := math.Hypot(r.HalfL, r.HalfW)
	or := math.Hypot(o.HalfL, o.HalfW)
	if r.Center.Dist(o.Center) > rr+or {
		return false
	}
	axes := [4]geom.Vec2{
		geom.Heading(r.Heading),
		geom.Heading(r.Heading).Perp(),
		geom.Heading(o.Heading),
		geom.Heading(o.Heading).Perp(),
	}
	corners := func(x geom.Rect) [4]geom.Vec2 {
		f := geom.Heading(x.Heading).Scale(x.HalfL)
		s := geom.Heading(x.Heading).Perp().Scale(x.HalfW)
		return [4]geom.Vec2{x.Center.Add(f).Add(s), x.Center.Sub(f).Add(s), x.Center.Sub(f).Sub(s), x.Center.Add(f).Sub(s)}
	}
	extent := func(pts [4]geom.Vec2, ax geom.Vec2) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			d := p.Dot(ax)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return lo, hi
	}
	rc, oc := corners(r), corners(o)
	for _, ax := range axes {
		rmin, rmax := extent(rc, ax)
		omin, omax := extent(oc, ax)
		if rmax < omin-geom.Eps || omax < rmin-geom.Eps {
			return false
		}
	}
	return true
}

// tilesFor is the tile lookup as first written: it rebuilds each tile's
// rectangle and runs refIntersects per tile. Mark must agree.
func tilesFor(g *TileGrid, r geom.Rect) []int {
	bb := r.AABB()
	if !bb.Overlaps(g.box) {
		return nil
	}
	iLo := clampIdx(int((bb.Min.X-g.box.Min.X)/g.side), g.n)
	iHi := clampIdx(int((bb.Max.X-g.box.Min.X)/g.side), g.n)
	jLo := clampIdx(int((bb.Min.Y-g.box.Min.Y)/g.side), g.n)
	jHi := clampIdx(int((bb.Max.Y-g.box.Min.Y)/g.side), g.n)
	var out []int
	for j := jLo; j <= jHi; j++ {
		for i := iLo; i <= iHi; i++ {
			tile := g.TileAABB(i, j)
			tileRect := geom.NewRect(tile.Center(), tile.Width(), tile.Height(), 0)
			if refIntersects(r, tileRect) {
				out = append(out, g.TileIndex(i, j))
			}
		}
	}
	return out
}

// TestMarkMatchesTilesFor: over random rectangles in and around the box,
// including ones aligned with the tile edges, Mark sets exactly the tiles
// the reference lookup returns.
func TestMarkMatchesTilesFor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{6, 8, 12} {
		g := newGrid(t, n)
		for i := 0; i < 4000; i++ {
			c := geom.V(rng.Float64()*2-1, rng.Float64()*2-1)
			heading := rng.Float64() * 2 * math.Pi
			if i%4 == 0 {
				// Axis-aligned, centred on a tile corner: edges fall on
				// tile boundaries.
				c = g.TileAABB(rng.Intn(n), rng.Intn(n)).Min
				heading = float64(rng.Intn(4)) * math.Pi / 2
			}
			r := geom.NewRect(c, rng.Float64()*0.8+0.01, rng.Float64()*0.4+0.01, heading)
			want := tilesFor(g, r)
			sort.Ints(want)
			got := marked(g, r)
			if len(got) != len(want) {
				t.Fatalf("n=%d rect %+v: Mark %v, reference %v", n, r, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d rect %+v: Mark %v, reference %v", n, r, got, want)
				}
			}
			set := make([]uint64, g.Words())
			if g.Mark(set, r) != (len(want) > 0) {
				t.Fatalf("n=%d rect %+v: Mark reports %v with %d tiles", n, r, !(len(want) > 0), len(want))
			}
		}
	}
}

// refReservations is the reservation table as first written, a map of
// step -> tile -> owner. Reservations must answer exactly as it does.
type refReservations struct {
	held map[int64]map[int]int64
}

func (r *refReservations) Available(steps map[int64][]int) bool {
	for step, tiles := range steps {
		row := r.held[step]
		if row == nil {
			continue
		}
		for _, tl := range tiles {
			if _, taken := row[tl]; taken {
				return false
			}
		}
	}
	return true
}

func (r *refReservations) Reserve(owner int64, steps map[int64][]int) {
	for step, tiles := range steps {
		row := r.held[step]
		if row == nil {
			row = make(map[int]int64)
			r.held[step] = row
		}
		for _, tl := range tiles {
			row[tl] = owner
		}
	}
}

func (r *refReservations) Release(owner int64) {
	for step, row := range r.held {
		for tl, o := range row {
			if o == owner {
				delete(row, tl)
			}
		}
		if len(row) == 0 {
			delete(r.held, step)
		}
	}
}

func (r *refReservations) PruneBefore(minStep int64) {
	for step := range r.held {
		if step < minStep {
			delete(r.held, step)
		}
	}
}

func (r *refReservations) HeldPairs() int {
	n := 0
	for _, row := range r.held {
		n += len(row)
	}
	return n
}

// sameHolders fails unless every pair the reference holds is held in res
// by the same owner, and res holds no other pair.
func sameHolders(t *testing.T, ref *refReservations, res *Reservations, op string) {
	t.Helper()
	if got, want := res.HeldPairs(), ref.HeldPairs(); got != want {
		t.Fatalf("after %s: HeldPairs %d, reference %d", op, got, want)
	}
	for step, row := range ref.held {
		held, owners := res.row(step, false)
		for tl, owner := range row {
			if held == nil || held[tl>>6]&(1<<(tl&63)) == 0 || owners[tl] != owner {
				t.Fatalf("after %s: pair (%d, %d) of owner %d missing", op, step, tl, owner)
			}
		}
	}
}

// TestReservationsMatchReference drives the ring and the reference map
// through the same seeded sequence of calls and compares every answer.
// The sequence reserves over held pairs and releases them in both orders,
// reserves below the pruned floor, and books footprints far enough out to
// grow the ring, plus a few hours away from the rest.
func TestReservationsMatchReference(t *testing.T) {
	for _, n := range []int{6, 8, 12} {
		g := newGrid(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		res := NewReservations(g)
		ref := &refReservations{held: make(map[int64]map[int]int64)}
		footprints := make(map[int64]map[int64][]int)
		floor := int64(0)
		random := func() map[int64][]int {
			base := floor + int64(rng.Intn(40)) - 8
			switch rng.Intn(20) {
			case 0:
				base += 150 + int64(rng.Intn(400)) // grows the ring
			case 1:
				base += 1 << 22 // beyond what the ring may grow to
			case 2:
				base = floor - 1 - int64(rng.Intn(30)) // below the floor
			}
			steps := make(map[int64][]int)
			for s := base; s < base+1+int64(rng.Intn(12)); s++ {
				for k := rng.Intn(6); k > 0; k-- {
					steps[s] = append(steps[s], rng.Intn(g.NumTiles()))
				}
			}
			return steps
		}
		for i := 0; i < 6000; i++ {
			owner := int64(1 + rng.Intn(10))
			var op string
			switch c := rng.Intn(10); {
			case c < 4:
				fp := random()
				if prev := footprints[int64(1+rng.Intn(10))]; prev != nil && rng.Intn(3) == 0 {
					fp = prev // over another owner's held pairs
				}
				op = "Reserve"
				footprints[owner] = fp
				ref.Reserve(owner, fp)
				res.Reserve(owner, occupancy(g, fp))
			case c < 7:
				op = "Release"
				ref.Release(owner)
				res.Release(owner)
			case c < 8:
				op = "PruneBefore"
				floor += int64(rng.Intn(12))
				ref.PruneBefore(floor)
				res.PruneBefore(floor)
			default:
				op = "Available"
				fp := random()
				if got, want := res.Available(occupancy(g, fp)), ref.Available(fp); got != want {
					t.Fatalf("n=%d call %d: Available %v, reference %v", n, i, got, want)
				}
			}
			sameHolders(t, ref, res, op)
		}
		if res.slots == ringSlots {
			t.Errorf("n=%d: the ring never grew", n)
		}
	}
}

// TestReservationsContestedOrders: a Reserve over held pairs takes them
// (the last Reserve owns a pair), and Release frees only what its owner
// still owns, whichever owner releases first.
func TestReservationsContestedOrders(t *testing.T) {
	g := newGrid(t, 8)
	a := map[int64][]int{10: {1, 2}, 11: {2}}
	b := map[int64][]int{11: {2, 3}, 12: {3}}
	for _, first := range []int64{1, 2} {
		res := NewReservations(g)
		ref := &refReservations{held: make(map[int64]map[int]int64)}
		for owner, fp := range map[int64]map[int64][]int{1: a} {
			ref.Reserve(owner, fp)
			res.Reserve(owner, occupancy(g, fp))
		}
		ref.Reserve(2, b)
		res.Reserve(2, occupancy(g, b))
		sameHolders(t, ref, res, "contested Reserve")
		ref.Release(first)
		res.Release(first)
		sameHolders(t, ref, res, "first Release")
		ref.Release(3 - first)
		res.Release(3 - first)
		sameHolders(t, ref, res, "second Release")
		if res.HeldPairs() != 0 {
			t.Errorf("releasing %d first left %d pairs", first, res.HeldPairs())
		}
	}
}

func TestReservationsLifecycle(t *testing.T) {
	g := newGrid(t, 6)
	res := NewReservations(g)
	steps := occupancy(g, map[int64][]int{10: {1, 2}, 11: {2, 3}})
	if !res.Available(steps) {
		t.Fatal("empty reservations not available")
	}
	res.Reserve(100, steps)
	if res.Available(steps) {
		t.Error("reserved pairs still available")
	}
	if res.Available(occupancy(g, map[int64][]int{10: {2}})) {
		t.Error("partially overlapping request available")
	}
	if !res.Available(occupancy(g, map[int64][]int{10: {5}, 12: {2}})) {
		t.Error("disjoint request unavailable")
	}
	if got := res.HeldPairs(); got != 4 {
		t.Errorf("HeldPairs = %d, want 4", got)
	}
	res.Release(100)
	if !res.Available(steps) {
		t.Error("released pairs unavailable")
	}
	if res.HeldPairs() != 0 {
		t.Errorf("HeldPairs after release = %d", res.HeldPairs())
	}
}

func TestReservationsReleaseOnlyOwner(t *testing.T) {
	g := newGrid(t, 6)
	res := NewReservations(g)
	res.Reserve(1, occupancy(g, map[int64][]int{5: {0}}))
	res.Reserve(2, occupancy(g, map[int64][]int{5: {1}}))
	res.Release(1)
	if res.Available(occupancy(g, map[int64][]int{5: {1}})) {
		t.Error("owner 2's reservation released")
	}
	if !res.Available(occupancy(g, map[int64][]int{5: {0}})) {
		t.Error("owner 1's reservation not released")
	}
}

func TestReservationsPrune(t *testing.T) {
	g := newGrid(t, 6)
	res := NewReservations(g)
	res.Reserve(1, occupancy(g, map[int64][]int{1: {0}, 5: {0}, 9: {0}}))
	res.PruneBefore(5)
	if res.HeldPairs() != 2 {
		t.Errorf("HeldPairs after prune = %d, want 2", res.HeldPairs())
	}
	if res.Available(occupancy(g, map[int64][]int{5: {0}})) {
		t.Error("pruned too much")
	}
	if !res.Available(occupancy(g, map[int64][]int{1: {0}})) {
		t.Error("step 1 not pruned")
	}
}

// TestOccupancyOverlaps: two footprints overlap iff they share a tile at
// one step, whatever their step ranges.
func TestOccupancyOverlaps(t *testing.T) {
	g := newGrid(t, 12)
	a := occupancy(g, map[int64][]int{3: {0, 140}, 4: {70}})
	for _, tc := range []struct {
		steps map[int64][]int
		want  bool
	}{
		{map[int64][]int{4: {70}}, true},
		{map[int64][]int{2: {1}, 3: {140}}, true},
		{map[int64][]int{3: {1}, 4: {71}, 5: {70}}, false},
		{map[int64][]int{9: {0}}, false},
		{nil, false},
	} {
		b := occupancy(g, tc.steps)
		if a.Overlaps(&b) != tc.want || b.Overlaps(&a) != tc.want {
			t.Errorf("%v overlaps %v: want %v", tc.steps, a, tc.want)
		}
	}
	if got := a.Pairs(); got != 3 {
		t.Errorf("Pairs = %d, want 3", got)
	}
}

// TestReservationsFarFootprint: a footprint too far from the held ones
// for the ring to span is kept aside, and still answers, releases and
// prunes like any other; once the near pairs are pruned, a booking next
// to it brings it into the ring.
func TestReservationsFarFootprint(t *testing.T) {
	g := newGrid(t, 8)
	res := NewReservations(g)
	ref := &refReservations{held: make(map[int64]map[int]int64)}
	const far = 1 << 30
	steps := []struct {
		op    string
		owner int64
		fp    map[int64][]int
		floor int64
	}{
		{op: "reserve", owner: 1, fp: map[int64][]int{10: {1}, 11: {1, 2}}},
		{op: "reserve", owner: 2, fp: map[int64][]int{far: {3}, far + 1: {3, 4}}},
		{op: "reserve", owner: 3, fp: map[int64][]int{far + 1: {4}, far + 2: {5}}},
		{op: "prune", floor: 100},
		{op: "reserve", owner: 4, fp: map[int64][]int{far - 2: {6}, far + 3: {6}}},
		{op: "release", owner: 2},
		{op: "reserve", owner: 5, fp: map[int64][]int{far: {3}}},
		{op: "prune", floor: far + 1},
		{op: "release", owner: 3},
	}
	for _, st := range steps {
		switch st.op {
		case "reserve":
			ref.Reserve(st.owner, st.fp)
			res.Reserve(st.owner, occupancy(g, st.fp))
		case "release":
			ref.Release(st.owner)
			res.Release(st.owner)
		case "prune":
			ref.PruneBefore(st.floor)
			res.PruneBefore(st.floor)
		}
		sameHolders(t, ref, res, st.op)
		for s := int64(far - 3); s <= far+3; s++ {
			for tl := 0; tl < 8; tl++ {
				probe := map[int64][]int{s: {tl}}
				if got, want := res.Available(occupancy(g, probe)), ref.Available(probe); got != want {
					t.Fatalf("after %s: Available(%v) %v, reference %v", st.op, probe, got, want)
				}
			}
		}
	}
}
