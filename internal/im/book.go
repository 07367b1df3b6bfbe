package im

import (
	"fmt"
	"sort"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/trace"
)

// CrossingPlan describes how a vehicle will traverse the box if granted an
// arrival time: the speed at the box entry, the commanded target value the
// policy will put on the wire (VT), and the in-box trajectory.
type CrossingPlan struct {
	// EntrySpeed is the speed when the vehicle center crosses the entry.
	EntrySpeed float64
	// TargetSpeed is the policy's wire value (the VT of a velocity
	// transaction).
	TargetSpeed float64
	// Traj is the in-box trajectory: distance 0 is the box entry and the
	// profile is anchored so that TimeAtDistance(0) is the arrival time.
	// An empty Traj means constant EntrySpeed.
	Traj kinematics.Profile
	// Approach, when present, is the commanded approach trajectory: an
	// absolute-time profile starting at the command execution time and
	// covering ApproachDist meters to the box entry. Policies that anchor
	// commands in time (Crossroads, batch) populate it so the IM can
	// later *revise* the grant: the vehicle's state at any revision time
	// is read off this profile.
	Approach     kinematics.Profile
	ApproachDist float64
}

// StateAt returns the vehicle's commanded position (as distance remaining
// to the box entry) and speed at absolute time t, read off the approach
// profile. ok is false when no approach trajectory was recorded or t is
// outside it.
func (p CrossingPlan) StateAt(t float64) (remaining, speed float64, ok bool) {
	if len(p.Approach.Phases) == 0 || p.ApproachDist <= 0 {
		return 0, 0, false
	}
	if t < p.Approach.StartTime {
		// The grant contract has the vehicle holding its anchor speed
		// until the plan's TE (the IM dead-reckoned it there at constant
		// speed), so shortly before the anchor the state is well-defined:
		// extrapolate the same contract backwards. Far before the anchor
		// the contract no longer applies (the vehicle was still driving
		// its previous plan), so give up.
		if p.Approach.StartTime-t > 1.0 {
			return 0, 0, false
		}
		v0 := p.Approach.VelocityAt(p.Approach.StartTime)
		return p.ApproachDist + v0*(p.Approach.StartTime-t), v0, true
	}
	covered := p.Approach.DistanceAt(t)
	if covered >= p.ApproachDist {
		return 0, 0, false // already at (or past) the entry
	}
	return p.ApproachDist - covered, p.Approach.VelocityAt(t), true
}

// Reservation is one granted crossing: the vehicle's center reaches the box
// entry at ToA and follows Plan through the box.
type Reservation struct {
	VehicleID int64
	Movement  intersection.MovementID
	// Params is the vehicle's capability packet, kept so the IM can
	// re-plan the crossing when revising grants.
	Params kinematics.Params
	// ToA is when the vehicle center crosses the box entry point.
	ToA float64
	// Plan is the granted crossing trajectory.
	Plan CrossingPlan
	// PlanLen is the buffer-inflated vehicle length used for headways.
	PlanLen float64
	// Placeholder marks a head-of-line protection slot held for a stopped
	// vehicle that could not yet be granted. Placeholders only constrain
	// vehicles junior to the holder (higher Seniority), which breaks the
	// livelock two stopped vehicles would otherwise enter by leapfrogging
	// each other's placeholders forever.
	Placeholder bool
	// Seniority orders vehicles by first contact with the IM (lower =
	// earlier).
	Seniority int64
}

// TimeAtArc returns the absolute time the vehicle center passes arc length
// `arc` measured from the box entry (negative = before the entry, covered
// at the entry speed).
func (r Reservation) TimeAtArc(arc float64) float64 {
	if arc > 0 && len(r.Plan.Traj.Phases) > 0 {
		return r.Plan.Traj.TimeAtDistance(arc)
	}
	return r.ToA + arc/max(r.Plan.EntrySpeed, 1e-6)
}

// ArcAtTime inverts TimeAtArc: the arc length (from the box entry) of the
// vehicle center at absolute time t.
func (r Reservation) ArcAtTime(t float64) float64 {
	if t > r.ToA && len(r.Plan.Traj.Phases) > 0 {
		return r.Plan.Traj.DistanceAt(t)
	}
	return (t - r.ToA) * max(r.Plan.EntrySpeed, 1e-6)
}

// SpeedAtArc returns the speed at arc length `arc` past the entry.
func (r Reservation) SpeedAtArc(arc float64) float64 {
	if len(r.Plan.Traj.Phases) == 0 || arc <= 0 {
		return max(r.Plan.EntrySpeed, 1e-6)
	}
	return max(r.Plan.Traj.VelocityAt(r.Plan.Traj.TimeAtDistance(arc)), 1e-6)
}

// interval is a closed time interval.
type interval struct{ lo, hi float64 }

func (i interval) overlaps(o interval) bool { return i.lo <= o.hi && o.lo <= i.hi }

// pad grows an interval by m on both sides.
func (i interval) pad(m float64) interval { return interval{i.lo - m, i.hi + m} }

// entryInterval is the time window the inflated footprint occupies the box
// entry cross-section.
func (r Reservation) entryInterval() interval {
	h := r.PlanLen / (2 * max(r.Plan.EntrySpeed, 1e-6))
	return interval{r.ToA - h, r.ToA + h}
}

// exitTime is when the center crosses out of the box.
func (r Reservation) exitTime(m *intersection.Movement) float64 {
	return r.TimeAtArc(m.InsideLen())
}

// exitSpeed is the speed at the box exit.
func (r Reservation) exitSpeed(m *intersection.Movement) float64 {
	return r.SpeedAtArc(m.InsideLen())
}

// exitInterval is the time window the footprint occupies the exit point.
func (r Reservation) exitInterval(m *intersection.Movement) interval {
	h := r.PlanLen / (2 * r.exitSpeed(m))
	t := r.exitTime(m)
	return interval{t - h, t + h}
}

// zoneInterval converts an arc-length conflict interval [sLo, sHi] on the
// reservation's own path (absolute arc lengths) into the time window the
// vehicle occupies it.
func (r Reservation) zoneInterval(m *intersection.Movement, sLo, sHi float64) interval {
	return interval{
		r.TimeAtArc(sLo - m.EnterS),
		r.TimeAtArc(sHi - m.EnterS),
	}
}

// resDerived holds the per-reservation quantities the conflict check
// needs, memoized at insertion so requiredShift reads structs instead of
// re-running the trajectory root finds behind exitTime/exitSpeed for
// every candidate/reservation pair.
type resDerived struct {
	// pad is the temporal margin plus the spatial margin converted at the
	// reservation's entry speed.
	pad   float64
	entry interval
	exitT float64
	exitV float64
	exit  interval
	// Padded views of the above, as requiredShift consumes them.
	paddedEntry    interval
	paddedExit     interval
	paddedCorridor interval // entry.lo .. exit.hi, padded
}

// bookEntry is one ledger slot: the reservation, its movement resolved to
// a dense index, the memoized kinematic quantities, and the padded time
// window it occupies each conflict zone (indexed by the *other* party's
// movement index).
type bookEntry struct {
	res  Reservation
	m    *intersection.Movement
	mIdx int
	// seq is the insertion rank; it is preserved when a vehicle's
	// reservation is replaced, so (ToA, seq) ordering reproduces exactly
	// the old stable-sort-by-ToA-over-insertion-order iteration.
	seq        int64
	d          resDerived
	zonePadded []interval
	zoneOK     []bool
}

// zoneRef is one cell of the dense movement-pair conflict matrix; z is
// oriented with its A side on the row movement and B side on the column
// movement.
type zoneRef struct {
	z  intersection.ConflictZone
	ok bool
}

// Book is the reservation ledger shared by VT-IM and Crossroads. It answers
// "what is the earliest conflict-free arrival at or after t for this
// movement, where the crossing trajectory itself depends on the arrival
// time" — the paper's safe-ToA calculation against the trajectories of
// already-admitted vehicles.
//
// The ledger is kept incrementally sorted by ToA (binary-search insert on
// Add, binary-search locate on Remove), and every entry memoizes its
// derived intervals, so the hot EarliestFeasible search neither re-sorts
// nor re-derives anything per call. Book methods are not safe for
// concurrent use; each simulated IM owns exactly one Book.
type Book struct {
	x     *intersection.Intersection
	table *intersection.ConflictTable
	// margin is extra temporal separation added around every conflict
	// interval (s).
	margin float64
	// spatial is extra separation in meters, converted to time at each
	// reservation's crossing speed. Tracking errors are spatial, so a
	// purely temporal margin would shrink to centimeters for slow (dip-
	// arrival) crossings.
	spatial float64
	// exitLen caches x.Config().ExitLen for the catch-up margin.
	exitLen float64

	// Dense movement indexing: moveIdx maps MovementID to an index into
	// moves, and zones[a][b] pre-resolves the conflict table's Zone(a, b)
	// lookup (two map probes + a possible swap) into one array access.
	moves   []*intersection.Movement
	moveIdx map[intersection.MovementID]int
	zones   [][]zoneRef

	active  map[int64]*bookEntry
	byToA   []*bookEntry // sorted by (res.ToA, seq)
	nextSeq int64

	// Candidate-side scratch for EarliestFeasible: the candidate's zone
	// occupancy per counter-movement, computed lazily once per candidate
	// plan and reused across every reservation with that movement.
	candZone    []interval
	candZoneSet []bool

	trace *trace.Recorder
}

// SetTrace attaches an event recorder to the ledger's mutations (add,
// remove, prune). The book has no clock of its own: event times come from
// the recorder's clock (Recorder.Now), which the world harness points at
// the simulator. nil detaches.
func (b *Book) SetTrace(rec *trace.Recorder) { b.trace = rec }

// NewBook creates a ledger over the intersection using the policy's
// conflict table (already built with buffer-inflated footprints). margin is
// the extra temporal clearance between occupancies and spatial the extra
// clearance in meters (converted at each reservation's entry speed).
func NewBook(x *intersection.Intersection, table *intersection.ConflictTable, margin, spatial float64) *Book {
	if margin < 0 {
		margin = 0
	}
	if spatial < 0 {
		spatial = 0
	}
	ids := x.MovementIDs()
	b := &Book{
		x:           x,
		table:       table,
		margin:      margin,
		spatial:     spatial,
		exitLen:     x.Config().ExitLen,
		moves:       make([]*intersection.Movement, len(ids)),
		moveIdx:     make(map[intersection.MovementID]int, len(ids)),
		zones:       make([][]zoneRef, len(ids)),
		active:      make(map[int64]*bookEntry),
		candZone:    make([]interval, len(ids)),
		candZoneSet: make([]bool, len(ids)),
	}
	for i, id := range ids {
		b.moves[i] = x.Movement(id)
		b.moveIdx[id] = i
	}
	for i, a := range ids {
		b.zones[i] = make([]zoneRef, len(ids))
		for j, bid := range ids {
			z, ok := table.Zone(a, bid)
			b.zones[i][j] = zoneRef{z: z, ok: ok}
		}
	}
	return b
}

// Len returns the number of active reservations.
func (b *Book) Len() int { return len(b.active) }

// Get returns the active reservation for a vehicle, if any.
func (b *Book) Get(vehicleID int64) (Reservation, bool) {
	if e, ok := b.active[vehicleID]; ok {
		return e.res, true
	}
	return Reservation{}, false
}

// derive memoizes the entry's kinematic quantities; the expressions
// mirror entryInterval/exitTime/exitSpeed/exitInterval exactly so cached
// and freshly computed values are bit-identical.
func (b *Book) derive(e *bookEntry) {
	r := &e.res
	e.d = b.deriveBase(r, e.m)
	d := &e.d
	d.paddedEntry = d.entry.pad(d.pad)
	d.paddedExit = d.exit.pad(d.pad)
	d.paddedCorridor = interval{d.entry.lo, d.exit.hi}.pad(d.pad)

	if len(e.zonePadded) != len(b.moves) {
		e.zonePadded = make([]interval, len(b.moves))
		e.zoneOK = make([]bool, len(b.moves))
	}
	for i := range b.moves {
		zr := &b.zones[i][e.mIdx]
		if !zr.ok {
			e.zoneOK[i] = false
			continue
		}
		e.zoneOK[i] = true
		e.zonePadded[i] = r.zoneInterval(e.m, zr.z.BStart, zr.z.BEnd).pad(d.pad)
	}
}

// less orders ledger slots by (ToA, seq).
func entryLess(a, e *bookEntry) bool {
	if a.res.ToA != e.res.ToA {
		return a.res.ToA < e.res.ToA
	}
	return a.seq < e.seq
}

// insertSorted places e into byToA at its (ToA, seq) position.
func (b *Book) insertSorted(e *bookEntry) {
	i := sort.Search(len(b.byToA), func(i int) bool { return entryLess(e, b.byToA[i]) })
	b.byToA = append(b.byToA, nil)
	copy(b.byToA[i+1:], b.byToA[i:])
	b.byToA[i] = e
}

// unlink removes e from byToA, locating it by binary search on (ToA, seq).
func (b *Book) unlink(e *bookEntry) {
	i := sort.Search(len(b.byToA), func(i int) bool { return !entryLess(b.byToA[i], e) })
	// (ToA, seq) keys are unique, so the search lands on e; scan forward
	// as insurance against an invariant breach rather than corrupting the
	// ledger.
	for i < len(b.byToA) && b.byToA[i] != e {
		i++
	}
	if i == len(b.byToA) {
		return
	}
	copy(b.byToA[i:], b.byToA[i+1:])
	b.byToA[len(b.byToA)-1] = nil
	b.byToA = b.byToA[:len(b.byToA)-1]
}

// Add inserts (or replaces) the reservation for r.VehicleID.
func (b *Book) Add(r Reservation) error {
	mIdx, ok := b.moveIdx[r.Movement]
	if !ok {
		return fmt.Errorf("im: unknown movement %v", r.Movement)
	}
	if r.Plan.EntrySpeed <= 0 {
		return fmt.Errorf("im: reservation entry speed %v must be positive", r.Plan.EntrySpeed)
	}
	if r.PlanLen <= 0 {
		return fmt.Errorf("im: reservation plan length %v must be positive", r.PlanLen)
	}
	seq := b.nextSeq
	if old, exists := b.active[r.VehicleID]; exists {
		// Replacement keeps the vehicle's insertion rank (the old ledger
		// kept its slot in the FIFO order list). A fresh entry is
		// allocated so pointers handed out by sorted() keep observing the
		// pre-replacement values, as they did when Add swapped the
		// map value wholesale.
		seq = old.seq
		b.unlink(old)
		delete(b.active, r.VehicleID)
	} else {
		b.nextSeq++
	}
	e := &bookEntry{res: r, m: b.moves[mIdx], mIdx: mIdx, seq: seq}
	b.derive(e)
	b.active[r.VehicleID] = e
	b.insertSorted(e)
	if b.trace != nil {
		ev := trace.Event{Kind: trace.KindBookAdd, Vehicle: r.VehicleID, Value: r.ToA}
		if r.Placeholder {
			ev.Detail = "placeholder"
		}
		b.trace.Emit(ev)
	}
	return nil
}

// Remove deletes a vehicle's reservation; missing IDs are a no-op.
func (b *Book) Remove(vehicleID int64) {
	e, ok := b.active[vehicleID]
	if !ok {
		return
	}
	delete(b.active, vehicleID)
	b.unlink(e)
	if b.trace != nil {
		b.trace.Emit(trace.Event{Kind: trace.KindBookRemove, Vehicle: vehicleID})
	}
}

// PruneBefore drops reservations whose vehicles have fully cleared the box
// (entry, zones, and exit all strictly before t).
func (b *Book) PruneBefore(t float64) {
	keep := b.byToA[:0]
	pruned := 0
	for _, e := range b.byToA {
		if e.d.exit.hi+b.margin < t {
			delete(b.active, e.res.VehicleID)
			pruned++
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(b.byToA); i++ {
		b.byToA[i] = nil
	}
	b.byToA = keep
	if pruned > 0 && b.trace != nil {
		b.trace.Emit(trace.Event{Kind: trace.KindBookPrune, Value: float64(pruned)})
	}
}

// Snapshot copies every active reservation in ToA order, for speculative
// mutations (auction preemption) that may need a full rollback.
func (b *Book) Snapshot() []Reservation {
	out := make([]Reservation, len(b.byToA))
	for i, e := range b.byToA {
		out[i] = e.res
	}
	return out
}

// Restore resets the ledger to exactly a Snapshot. Insertion ranks are
// reassigned in snapshot order (ToA order), so equal-ToA tie-breaking after
// a rollback follows arrival order rather than the original insertion
// order; no trace events are emitted — a rolled-back speculation never
// happened. Reservations whose movement is unknown to this book are
// dropped (cannot occur for snapshots taken from the same book).
func (b *Book) Restore(snap []Reservation) {
	b.active = make(map[int64]*bookEntry, len(snap))
	for i := range b.byToA {
		b.byToA[i] = nil
	}
	b.byToA = b.byToA[:0]
	for i := range snap {
		mIdx, ok := b.moveIdx[snap[i].Movement]
		if !ok {
			continue
		}
		e := &bookEntry{res: snap[i], m: b.moves[mIdx], mIdx: mIdx, seq: b.nextSeq}
		b.nextSeq++
		b.derive(e)
		b.active[e.res.VehicleID] = e
		b.insertSorted(e)
	}
}

// sorted returns active reservations ordered by ToA (stable by insertion).
func (b *Book) sorted() []*Reservation {
	out := make([]*Reservation, len(b.byToA))
	for i, e := range b.byToA {
		out[i] = &e.res
	}
	return out
}

// candCtx is the candidate side of the conflict check: the in-flight
// (toa, plan) pair with its derived quantities, refreshed whenever the
// solver pushes the arrival later. Zone occupancies live in the Book's
// scratch buffers and are computed lazily per counter-movement.
type candCtx struct {
	res  Reservation
	m    *intersection.Movement
	mIdx int
	d    resDerived
}

// setCand derives the candidate context and resets the zone scratch.
func (b *Book) setCand(c *candCtx, r Reservation) {
	c.res = r
	c.mIdx = b.moveIdx[r.Movement]
	c.m = b.moves[c.mIdx]
	c.d = b.deriveBase(&c.res, c.m)
	for i := range b.candZoneSet {
		b.candZoneSet[i] = false
	}
}

// deriveBase computes the unpadded derived values shared by ledger
// entries and in-flight candidates (candidates never need the padded
// fields — only the entry side of a conflict check is ever padded).
func (b *Book) deriveBase(r *Reservation, m *intersection.Movement) resDerived {
	var d resDerived
	d.pad = b.margin + b.spatial/max(r.Plan.EntrySpeed, 0.5)
	d.entry = r.entryInterval()
	inside := m.InsideLen()
	if inside > 0 && len(r.Plan.Traj.Phases) > 0 {
		d.exitT = r.Plan.Traj.TimeAtDistance(inside)
		d.exitV = max(r.Plan.Traj.VelocityAt(d.exitT), 1e-6)
	} else {
		d.exitT = r.ToA + inside/max(r.Plan.EntrySpeed, 1e-6)
		d.exitV = max(r.Plan.EntrySpeed, 1e-6)
	}
	h := r.PlanLen / (2 * d.exitV)
	d.exit = interval{d.exitT - h, d.exitT + h}
	return d
}

// candZoneFor returns the candidate's occupancy of its conflict zone
// against movement index ri, computing it at most once per candidate.
func (b *Book) candZoneFor(c *candCtx, ri int) (interval, bool) {
	zr := &b.zones[c.mIdx][ri]
	if !zr.ok {
		return interval{}, false
	}
	if !b.candZoneSet[ri] {
		b.candZone[ri] = c.res.zoneInterval(c.m, zr.z.AStart, zr.z.AEnd)
		b.candZoneSet[ri] = true
	}
	return b.candZone[ri], true
}

// shiftFor returns how much later the candidate must arrive to clear e
// (0 if it already does), reading every e-side quantity from the entry's
// memoized derived struct. Constraints considered: shared entry corridor,
// shared exit lane (with catch-up margin for faster followers), and
// crossing conflict zones from the table.
func (b *Book) shiftFor(c *candCtx, e *bookEntry) float64 {
	cand, r := &c.res, &e.res
	shift := 0.0
	bump := func(cInt, rInt interval) {
		if cInt.overlaps(rInt) {
			if d := rInt.hi - cInt.lo + 1e-6; d > shift {
				shift = d
			}
		}
	}

	// Shared entry lane. A follower that is slower both entering and
	// exiting can platoon through the box behind its leader (its speed
	// profile stays below the leader's at every position, so the gap
	// never shrinks); otherwise the whole passage is serialized — this
	// also covers a heterogeneous fleet where a nimble car would
	// out-accelerate a truck it entered behind.
	sameLane := cand.Movement.Approach == r.Movement.Approach && cand.Movement.Lane == r.Movement.Lane
	if sameLane {
		later := cand.ToA >= r.ToA
		faster := cand.Plan.EntrySpeed > r.Plan.EntrySpeed+1e-9 ||
			c.d.exitV > e.d.exitV+1e-9
		if later && faster {
			bump(interval{c.d.entry.lo, c.d.exit.hi}, e.d.paddedCorridor)
		} else {
			// Platooning entry separation, plus a launch-following
			// allowance: a follower accelerating directly behind its
			// leader tracks slightly below the leader's speed (reaction
			// margin), losing a few tenths of a second it cannot recover
			// once its own plan saturates.
			rInt := e.d.paddedEntry
			rInt.hi += 4 * b.margin
			bump(c.d.entry, rInt)
		}
	}

	// Shared exit lane: serialized at the exit point, plus the catch-up
	// margin when the later vehicle exits faster, plus a flat allowance
	// for the leader running its exit slower than reserved (cascaded
	// lateness) — merging vehicles braking inside the box would otherwise
	// fall off their own reservations.
	if c.m.Exit == e.m.Exit && cand.Movement.Lane == r.Movement.Lane {
		rInt := e.d.paddedExit
		ce, re := c.d.exitV, e.d.exitV
		if cand.ToA >= r.ToA && ce > re {
			rInt.hi += b.exitLen * (1/re - 1/ce)
		}
		rInt.hi += 6 * b.margin
		bump(c.d.exit, rInt)
	}

	// Crossing conflict zone (same-lane pairs are fully handled above —
	// their table zone is just the shared corridor).
	if !sameLane && e.zoneOK[c.mIdx] {
		if cInt, ok := b.candZoneFor(c, e.mIdx); ok {
			bump(cInt, e.zonePadded[c.mIdx])
		}
	}
	return shift
}

// requiredShift returns how much later cand must arrive to clear r (0 if
// it already does). When r is the live ledger entry for its vehicle the
// memoized quantities are reused; otherwise (tests, revision what-ifs
// against detached values) they are derived on the spot.
func (b *Book) requiredShift(cand Reservation, r *Reservation) float64 {
	if _, ok := b.moveIdx[cand.Movement]; !ok {
		return 0
	}
	var c candCtx
	b.setCand(&c, cand)
	if e, ok := b.active[r.VehicleID]; ok && &e.res == r {
		return b.shiftFor(&c, e)
	}
	mIdx, ok := b.moveIdx[r.Movement]
	if !ok {
		return 0
	}
	e := &bookEntry{res: *r, m: b.moves[mIdx], mIdx: mIdx}
	b.derive(e)
	return b.shiftFor(&c, e)
}

// EarliestFeasible finds the earliest conflict-free arrival at or after
// earliest for the movement, where the crossing plan is a function of the
// arrival time. planFor must return a plan with positive EntrySpeed for any
// toa >= earliest. It returns the chosen arrival and plan.
//
// The solver alternates conflict pushing with plan refreshes; arrival time
// is monotonically nondecreasing, so it terminates.
func (b *Book) EarliestFeasible(vehicleID, seniority int64, m intersection.MovementID, planLen, earliest float64, planFor func(toa float64) CrossingPlan) (float64, CrossingPlan, error) {
	if _, ok := b.moveIdx[m]; !ok {
		return 0, CrossingPlan{}, fmt.Errorf("im: unknown movement %v", m)
	}
	toa := earliest
	plan := planFor(toa)
	if plan.EntrySpeed <= 0 {
		return 0, CrossingPlan{}, fmt.Errorf("im: planFor(%v) returned entry speed %v", toa, plan.EntrySpeed)
	}
	var c candCtx
	b.setCand(&c, Reservation{VehicleID: vehicleID, Movement: m, ToA: toa, Plan: plan, PlanLen: planLen, Seniority: seniority})
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		pushed := false
		for _, e := range b.byToA {
			if e.res.VehicleID == vehicleID {
				continue // replacing our own reservation
			}
			if e.res.Placeholder && e.res.Seniority > seniority {
				continue // junior placeholders do not block seniors
			}
			if shift := b.shiftFor(&c, e); shift > 1e-9 {
				toa += shift
				plan = planFor(toa)
				if plan.EntrySpeed <= 0 {
					return 0, CrossingPlan{}, fmt.Errorf("im: planFor(%v) returned entry speed %v", toa, plan.EntrySpeed)
				}
				b.setCand(&c, Reservation{VehicleID: vehicleID, Movement: m, ToA: toa, Plan: plan, PlanLen: planLen, Seniority: seniority})
				pushed = true
			}
		}
		if !pushed {
			return toa, plan, nil
		}
	}
	// Could not stabilize: park the vehicle after everything currently
	// booked (deeply congested corner case).
	last := 0.0
	for _, e := range b.byToA {
		if e.d.exitT > last {
			last = e.d.exitT
		}
	}
	toa = max(toa, last+1.0)
	return toa, planFor(toa), nil
}

// ConstantPlan is a helper building a constant-speed crossing plan.
func ConstantPlan(speed float64) CrossingPlan {
	return CrossingPlan{EntrySpeed: speed, TargetSpeed: speed}
}

// AccelPlan builds a crossing plan that enters at vEntry at time toa and
// accelerates at accel toward vMax, cruising beyond — the paper's
// max-acceleration crossing trajectory (Fig. 6.2).
func AccelPlan(toa, vEntry, vMax, accel float64) CrossingPlan {
	vEntry = max(vEntry, 1e-3)
	if vEntry >= vMax || accel <= 0 {
		return CrossingPlan{EntrySpeed: vEntry, TargetSpeed: vEntry}
	}
	traj := kinematics.NewProfile(toa,
		kinematics.Phase{Duration: (vMax - vEntry) / accel, V0: vEntry, Accel: accel},
	)
	return CrossingPlan{EntrySpeed: vEntry, TargetSpeed: vMax, Traj: traj}
}
