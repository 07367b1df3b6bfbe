package intersection

import (
	"fmt"
	"math/bits"

	"crossroads/internal/geom"
)

// MaxTileGridN bounds the tile grid dimension: a reservation row holds an
// owner slot per tile, 8·N² bytes per time step.
const MaxTileGridN = 32

// TileGrid divides the conflict box into N x N square tiles. The AIM
// baseline reserves (tile, time-step) pairs: a request is granted only if
// every tile its simulated trajectory touches is free at the corresponding
// step. This mirrors Dresner & Stone's reservation grid.
//
// A set of tiles is a bitset of Words() words, tile k being bit k%64 of
// word k/64, with k the flattened TileIndex.
type TileGrid struct {
	box   geom.AABB
	n     int
	side  float64             // tile side length
	tiles []geom.PreparedRect // per flattened index, prepared once
}

// NewTileGrid builds an n x n grid over the box, 0 < n <= MaxTileGridN.
func NewTileGrid(box geom.AABB, n int) (*TileGrid, error) {
	if n <= 0 || n > MaxTileGridN {
		return nil, fmt.Errorf("intersection: tile grid size %d outside [1, %d]", n, MaxTileGridN)
	}
	if box.Width() <= 0 || box.Height() <= 0 {
		return nil, fmt.Errorf("intersection: degenerate box %+v", box)
	}
	g := &TileGrid{box: box, n: n, side: box.Width() / float64(n)}
	g.tiles = make([]geom.PreparedRect, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tile := g.TileAABB(i, j)
			g.tiles[g.TileIndex(i, j)] = geom.NewRect(tile.Center(), tile.Width(), tile.Height(), 0).Prepare()
		}
	}
	return g, nil
}

// N returns the grid dimension.
func (g *TileGrid) N() int { return g.n }

// NumTiles returns n*n.
func (g *TileGrid) NumTiles() int { return g.n * g.n }

// Words returns the length of one tile bitset: ⌈N²/64⌉.
func (g *TileGrid) Words() int { return (g.n*g.n + 63) / 64 }

// TileAABB returns the bounds of tile (i, j); i is the column (X), j the
// row (Y), both 0-based from the box minimum corner.
func (g *TileGrid) TileAABB(i, j int) geom.AABB {
	min := geom.V(g.box.Min.X+float64(i)*g.side, g.box.Min.Y+float64(j)*g.side)
	return geom.AABB{Min: min, Max: min.Add(geom.V(g.side, g.side))}
}

// TileIndex flattens (i, j) into a single index.
func (g *TileGrid) TileIndex(i, j int) int { return j*g.n + i }

// Mark ORs into set, a Words()-word bitset, every tile whose area overlaps
// the oriented rectangle, and reports whether the rectangle overlaps any.
// Only tiles under the rectangle's bounding box are tested.
func (g *TileGrid) Mark(set []uint64, r geom.Rect) bool {
	p := r.Prepare()
	bb := p.AABB()
	if !bb.Overlaps(g.box) {
		return false
	}
	iLo := clampIdx(int((bb.Min.X-g.box.Min.X)/g.side), g.n)
	iHi := clampIdx(int((bb.Max.X-g.box.Min.X)/g.side), g.n)
	jLo := clampIdx(int((bb.Min.Y-g.box.Min.Y)/g.side), g.n)
	jHi := clampIdx(int((bb.Max.Y-g.box.Min.Y)/g.side), g.n)
	marked := false
	for j := jLo; j <= jHi; j++ {
		for i := iLo; i <= iHi; i++ {
			k := g.TileIndex(i, j)
			if p.Intersects(&g.tiles[k]) {
				set[k>>6] |= 1 << (k & 63)
				marked = true
			}
		}
	}
	return marked
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Occupancy is a set of (tile, step) pairs over a contiguous step range:
// one tile bitset, a row, per step. A footprint is built by Or-ing rows
// into it; once reserved it must not change.
type Occupancy struct {
	first int64
	words int
	bits  []uint64 // row k, for step first+k, is bits[k*words : (k+1)*words]
}

// NewOccupancy returns an empty occupancy over the grid's tiles, with
// room for rows steps before it reallocates.
func (g *TileGrid) NewOccupancy(rows int) Occupancy {
	return Occupancy{words: g.Words(), bits: make([]uint64, 0, rows*g.Words())}
}

// Steps returns the step range [first, first+n) the occupancy spans.
func (o *Occupancy) Steps() (first int64, n int) {
	if o.words == 0 {
		return o.first, 0
	}
	return o.first, len(o.bits) / o.words
}

// row returns the tile bitset at the k-th step of the range.
func (o *Occupancy) row(k int) []uint64 { return o.bits[k*o.words : (k+1)*o.words] }

// Or adds the tiles of row at step, widening the range as needed.
func (o *Occupancy) Or(step int64, row []uint64) {
	first, n := o.Steps()
	switch {
	case n == 0:
		o.first = step
		o.bits = append(o.bits[:0], row...)
		return
	case step < first:
		grown := make([]uint64, (int(first-step)+n)*o.words)
		copy(grown[int(first-step)*o.words:], o.bits)
		o.first, o.bits = step, grown
	case step >= first+int64(n):
		o.bits = append(o.bits, make([]uint64, int(step-first-int64(n)+1)*o.words)...)
	}
	dst := o.row(int(step - o.first))
	for w, b := range row {
		dst[w] |= b
	}
}

// Pairs returns the number of (tile, step) pairs in the occupancy.
func (o *Occupancy) Pairs() int { return popCount(o.bits) }

// Overlaps reports whether two occupancies share a (tile, step) pair.
func (o *Occupancy) Overlaps(p *Occupancy) bool {
	of, on := o.Steps()
	pf, pn := p.Steps()
	lo, hi := max(of, pf), min(of+int64(on), pf+int64(pn))
	for s := lo; s < hi; s++ {
		a, b := o.row(int(s-of)), p.row(int(s-pf))
		for w := range a {
			if a[w]&b[w] != 0 {
				return true
			}
		}
	}
	return false
}

// Reservations tracks which (tile, step) pairs are held and by whom. Time
// is discretized by the scheduler (AIM or dot) into fixed steps.
//
// Rows live in a power-of-two ring: step s sits in slot s mod len, and
// the ring's rows cover the window [lo, hi), which never spans more than
// the ring. A row holds its step's tile bitset and one owner per tile,
// valid where the bit is set. The ring doubles, up to maxRingBytes, when
// a footprint falls outside the window; steps it still cannot take (a
// footprint hours away from the rest) are kept in a map. The last Reserve
// of a pair owns it; Release frees only the pairs its owner still owns,
// walking the footprints that owner reserved.
type Reservations struct {
	words, tiles int
	slots        int      // ring length in steps, a power of two
	bits         []uint64 // slot k: bits[k*words : (k+1)*words]
	owners       []int64  // slot k: owners[k*tiles : (k+1)*tiles]
	lo, hi       int64
	spill        map[int64]*spillRow // held steps outside [lo, hi)
	held         int                 // pairs held
	byOwner      map[int64][]Occupancy
}

// spillRow is one step's row outside the ring.
type spillRow struct {
	bits   []uint64
	owners []int64
}

const (
	ringSlots    = 64      // initial ring length, in steps
	maxRingBytes = 4 << 20 // the ring stops doubling at this size
)

// NewReservations creates an empty reservation set over the grid.
func NewReservations(grid *TileGrid) *Reservations {
	r := &Reservations{words: grid.Words(), tiles: grid.NumTiles(), byOwner: make(map[int64][]Occupancy)}
	r.alloc(ringSlots)
	return r
}

func (r *Reservations) alloc(slots int) {
	r.slots = slots
	r.bits = make([]uint64, slots*r.words)
	r.owners = make([]int64, slots*r.tiles)
}

// row returns a step's tile bitset and owner slots. A step outside the
// window reads from the spill map, as nil when it holds nothing there,
// unless create adds an empty spill row for it.
func (r *Reservations) row(s int64, create bool) ([]uint64, []int64) {
	if s >= r.lo && s < r.hi {
		k := int(s & int64(r.slots-1))
		return r.bits[k*r.words : (k+1)*r.words], r.owners[k*r.tiles : (k+1)*r.tiles]
	}
	sp := r.spill[s]
	if sp == nil {
		if !create {
			return nil, nil
		}
		sp = &spillRow{bits: make([]uint64, r.words), owners: make([]int64, r.tiles)}
		if r.spill == nil {
			r.spill = make(map[int64]*spillRow)
		}
		r.spill[s] = sp
	}
	return sp.bits, sp.owners
}

// Available reports whether every (tile, step) pair is free.
func (r *Reservations) Available(o Occupancy) bool {
	first, n := o.Steps()
	for k := 0; k < n; k++ {
		if r.Taken(first+int64(k), o.row(k)) {
			return false
		}
	}
	return true
}

// Taken reports whether any tile of set, a tile bitset, is held at step.
func (r *Reservations) Taken(step int64, set []uint64) bool {
	held, _ := r.row(step, false)
	if held == nil {
		return false
	}
	for w, b := range set {
		if held[w]&b != 0 {
			return true
		}
	}
	return false
}

// Reserve claims the pairs for owner. It does not re-check availability;
// call Available first.
func (r *Reservations) Reserve(owner int64, o Occupancy) {
	first, n := o.Steps()
	if n == 0 {
		return
	}
	r.cover(first, first+int64(n))
	for k := 0; k < n; k++ {
		held, owners := r.row(first+int64(k), true)
		for w, b := range o.row(k) {
			r.held += bits.OnesCount64(b &^ held[w])
			held[w] |= b
			for ; b != 0; b &= b - 1 {
				owners[w<<6+bits.TrailingZeros64(b)] = owner
			}
		}
	}
	r.byOwner[owner] = append(r.byOwner[owner], o)
}

// cover widens the window to take [a, b), doubling the ring as needed,
// and leaves it as it is if that would outgrow maxRingBytes. Slots that
// enter the window are clean: the window never spans more than the ring,
// so no step already in it shares their slot.
func (r *Reservations) cover(a, b int64) {
	if r.held == 0 {
		// Nothing is held anywhere: every slot is clean and the spill
		// rows are empty, so the window can move.
		r.lo, r.hi = a, a
		clear(r.spill)
	}
	lo, hi := min(a, r.lo), max(b, r.hi)
	if r.lo == r.hi {
		lo, hi = a, b
	}
	slots := r.slots
	for uint64(hi-lo) > uint64(slots) {
		slots *= 2
		if slots*8*(r.words+r.tiles) > maxRingBytes {
			return
		}
	}
	if slots > r.slots {
		old := *r
		r.alloc(slots)
		for s := old.lo; s < old.hi; s++ {
			ob, oo := old.row(s, false)
			nb, no := r.row(s, false)
			copy(nb, ob)
			copy(no, oo)
		}
	}
	r.lo, r.hi = lo, hi
	for s, sp := range r.spill {
		if s >= lo && s < hi {
			delete(r.spill, s)
			nb, no := r.row(s, false)
			copy(nb, sp.bits)
			copy(no, sp.owners)
		}
	}
}

// Release frees every pair held by owner.
func (r *Reservations) Release(owner int64) {
	for _, o := range r.byOwner[owner] {
		first, n := o.Steps()
		for k := 0; k < n; k++ {
			held, owners := r.row(first+int64(k), false)
			if held == nil {
				continue
			}
			for w, b := range o.row(k) {
				for b &= held[w]; b != 0; b &= b - 1 {
					bit := bits.TrailingZeros64(b)
					if owners[w<<6+bit] == owner {
						held[w] &^= 1 << bit
						r.held--
					}
				}
			}
		}
	}
	delete(r.byOwner, owner)
}

// PruneBefore discards reservations at steps strictly before minStep,
// bounding memory in long runs. A later Reserve below it still holds.
func (r *Reservations) PruneBefore(minStep int64) {
	for s, sp := range r.spill {
		if s < minStep {
			r.held -= popCount(sp.bits)
			delete(r.spill, s)
		}
	}
	if minStep <= r.lo {
		return
	}
	for s := r.lo; s < min(minStep, r.hi); s++ {
		held, _ := r.row(s, false)
		r.held -= popCount(held)
		clear(held)
	}
	r.lo, r.hi = minStep, max(minStep, r.hi)
}

// HeldPairs returns the total number of (tile, step) pairs currently held.
func (r *Reservations) HeldPairs() int { return r.held }

func popCount(set []uint64) int {
	n := 0
	for _, b := range set {
		n += bits.OnesCount64(b)
	}
	return n
}
