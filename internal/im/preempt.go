package im

// Slot preemption for PriorityPolicy planners (the auction policy): a
// positive bidder may claim an earlier arrival than the plain
// first-come-first-served search found, by rebooking lower-bid
// reservations later through the same revision cascade a committed
// vehicle's truthful re-booking uses. The attempt is speculative and
// all-or-nothing: the book is snapshotted up front, and if the winner's
// slot is unverifiable, the gain too small, or any displaced grant cannot
// be safely revised (a residual conflict with the winner survives the
// cascade), the whole book is rolled back and the pushes discarded — the
// caller then keeps the non-preemptive slot. Safety therefore never
// depends on preemption: a grant leaves this path either exactly as the
// FIFO search produced it or fully conflict-free after verified revisions.

// preemptMinGain is the least arrival-time improvement (s) worth
// disturbing other vehicles' grants for.
const preemptMinGain = 0.5

// tryPreempt attempts to improve a positive bidder's slot from npToA (the
// non-preemptive result) by displacing lower-bid reservations. On success
// it returns the improved (toa, plan), with the winner booked and every
// displaced reservation re-planned, plus the revision pushes to transmit.
func (c *VTCore) tryPreempt(now float64, req Request, sen, bid int64, planLen, earliest float64, planFor func(toa float64) CrossingPlan, npToA float64) (float64, CrossingPlan, []Push, bool) {
	cmdLat := c.cfg.WCRTD

	// Lane leaders are physically unpassable — never displace them.
	ahead := make(map[int64]bool)
	for _, id := range c.order.Ahead(req.VehicleID, req.DistToEntry) {
		ahead[id] = true
	}

	// Victims: lower-bid, non-placeholder grants that recorded a commanded
	// approach (revisable) and whose crossing is far enough out for a push
	// to reach the vehicle before its new execution time.
	var victims []int64
	for _, r := range c.book.sorted() {
		if r.VehicleID == req.VehicleID || r.Placeholder || ahead[r.VehicleID] {
			continue
		}
		if c.bids[r.VehicleID] >= bid {
			continue
		}
		if len(r.Plan.Approach.Phases) == 0 || r.ToA < now+cmdLat+0.5 {
			continue
		}
		victims = append(victims, r.VehicleID)
	}
	if len(victims) == 0 {
		return 0, CrossingPlan{}, nil, false
	}

	snap := c.book.Snapshot()

	// What-if: the bidder's earliest slot with every victim out of the way.
	for _, id := range victims {
		c.book.Remove(id)
	}
	toa, plan, err := c.book.EarliestFeasible(req.VehicleID, sen, req.Movement, planLen, earliest, planFor)
	if err != nil || toa > npToA-preemptMinGain {
		c.book.Restore(snap)
		return 0, CrossingPlan{}, nil, false
	}
	if !c.planner.VerifySlot(now, toa, plan, req) {
		c.book.Restore(snap)
		return 0, CrossingPlan{}, nil, false
	}

	// Commit the claim against the full book and cascade revisions over the
	// displaced grants.
	c.book.Restore(snap)
	cand := Reservation{
		VehicleID: req.VehicleID,
		Movement:  req.Movement,
		Params:    req.Params,
		ToA:       toa,
		Plan:      plan,
		PlanLen:   planLen,
		Seniority: sen,
	}
	c.book.Add(cand)
	pushes := ReviseConflicts(c.book, cand, now, cmdLat, 0.1)

	// Audit: every reservation the winner is not entitled to ignore must
	// now clear it. Any residual conflict means some displaced grant was
	// unrevisable — roll the whole speculation back.
	for _, r := range c.book.sorted() {
		if r.VehicleID == req.VehicleID {
			continue
		}
		if r.Placeholder && r.Seniority > sen {
			continue
		}
		if c.book.requiredShift(cand, r) > 1e-6 {
			c.book.Restore(snap)
			return 0, CrossingPlan{}, nil, false
		}
	}
	return toa, plan, pushes, true
}
