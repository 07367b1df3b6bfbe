package im

import (
	"math"

	"crossroads/internal/kinematics"
)

// Push is an IM-initiated command revision: an unsolicited timed grant
// (Seq 0) the server transmits to a vehicle whose earlier grant was
// invalidated by a committed vehicle's truthful re-booking. Only policies
// with time-anchored commands can do this — the capability a yes/no
// protocol like AIM structurally lacks.
type Push struct {
	VehicleID int64
	Resp      Response
}

// ReviseConflicts walks the book after `cause` was (re-)booked and, for
// every reservation that now conflicts with it and can still be safely
// revised, computes a fresh conflict-free slot, updates the book, and
// returns the pushes to transmit. Revisions cascade (a pushed slot may
// displace another) up to a bounded number of rounds.
//
// A reservation is revisable when it recorded its commanded approach
// trajectory, its vehicle will still be dip-capable at the new execution
// time (it can realize any later arrival), and the new command can reach
// it in time (cmdLatency before the new TE).
func ReviseConflicts(b *Book, cause Reservation, now, cmdLatency, minCrossSpeed float64) []Push {
	var pushes []Push
	frontier := []Reservation{cause}
	revised := map[int64]bool{cause.VehicleID: true}

	const maxRounds = 8
	for round := 0; round < maxRounds && len(frontier) > 0; round++ {
		var next []Reservation
		for _, trigger := range frontier {
			for _, r := range b.sorted() {
				if r.VehicleID == trigger.VehicleID || revised[r.VehicleID] || r.Placeholder {
					continue
				}
				if b.requiredShift(*r, &trigger) <= 1e-6 {
					continue
				}
				nr, resp, ok := reviseOne(b, *r, now, cmdLatency, minCrossSpeed)
				if !ok {
					continue
				}
				revised[r.VehicleID] = true
				b.Add(nr)
				pushes = append(pushes, Push{VehicleID: nr.VehicleID, Resp: resp})
				next = append(next, nr)
			}
		}
		frontier = next
	}
	return pushes
}

// reviseOne recomputes one reservation's slot from its commanded state at
// the new execution time te = now + cmdLatency.
func reviseOne(b *Book, r Reservation, now, cmdLatency, minCrossSpeed float64) (Reservation, Response, bool) {
	if err := r.Params.Validate(); err != nil {
		return Reservation{}, Response{}, false
	}
	a, ok := AnchorPlan(r.Plan, now+cmdLatency, r.Params, minCrossSpeed)
	if !ok {
		return Reservation{}, Response{}, false
	}
	// Bound the push by what the vehicle can still *safely* realize. A
	// vehicle that can stop behind the conflict-zone lip can absorb any
	// delay (it waits at the stop line). One that cannot is not thereby
	// unrevisable — a mild delay fits in a no-dwell dip — but the revised
	// slot must stay within that dip's reach.
	lip := r.PlanLen // conservative: a body-plus-buffers length before the entry
	latest, ok := a.Latest(lip)
	if !ok {
		return Reservation{}, Response{}, false
	}
	earliest, vEarliest := a.Earliest()
	earliest = max(earliest, r.ToA) // revisions only push later
	// Every revised arrival enters at its approach's own speed.
	planFor := func(toa float64) CrossingPlan { return a.Plan(toa, math.Inf(-1), vEarliest) }
	toa, plan, err := b.EarliestFeasible(r.VehicleID, r.Seniority, r.Movement, r.PlanLen, earliest, planFor)
	if err != nil || toa > latest {
		return Reservation{}, Response{}, false
	}
	// Verify reachability of the revised slot from the commanded state,
	// and that its approach keeps any dwell behind the lip. Stricter than
	// Anchor.Realizable: an arrival earlier than reachable fails, and so
	// does a dwell within lip of the entry with no tolerance.
	prof, perr := kinematics.PlanArrival(a.TE, a.DE, a.VC, toa, r.Params)
	if perr != nil || math.Abs(prof.TimeAtDistance(a.DE)-toa) > 0.05 {
		return Reservation{}, Response{}, false
	}
	if minV, rem := kinematics.SlowestPoint(prof, a.DE); minV < 0.3 && rem < a.DE-1e-6 && rem < lip {
		return Reservation{}, Response{}, false
	}
	nr := r
	nr.ToA = toa
	nr.Plan = plan
	return nr, Response{
		Kind:        RespTimed,
		TargetSpeed: plan.EntrySpeed,
		ExecuteAt:   a.TE,
		ArriveAt:    toa,
	}, true
}
