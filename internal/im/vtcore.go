package im

import (
	"fmt"
	"math/rand"

	"crossroads/internal/intersection"
	"crossroads/internal/safety"
	"crossroads/internal/trace"
)

// VTPlanner is the policy-specific piece of a velocity-transaction
// scheduler. The paper runs the *same* IM scheduling code for plain VT-IM
// and for Crossroads; what differs is how the commanded trajectory is
// anchored in time (at command receipt for VT-IM, at the fixed execution
// time TE for Crossroads) and therefore which kinematic solver maps an
// arrival time to an achievable crossing speed.
type VTPlanner interface {
	// Plan analyzes a request processed at simulated time now and returns:
	// earliest — the earliest reachable arrival at the box entry;
	// planFor — the achievable crossing plan if arrival is delayed to
	// toa >= earliest;
	// respond — the wire response granting (toa, plan).
	Plan(now float64, req Request) (earliest float64, planFor func(toa float64) CrossingPlan, respond func(toa float64, plan CrossingPlan) Response, err error)
}

// SlotVerifier is an optional VTPlanner extension: after the core picks a
// (toa, speed) slot, the planner may reject it when its actuation primitive
// cannot realize that arrival. Plain VT-IM needs this — a single held
// velocity cannot delay arrival beyond the crawl limit, so the IM must tell
// such vehicles to stop and retry instead of booking a slot the vehicle
// would overrun.
type SlotVerifier interface {
	VerifySlot(now, toa float64, plan CrossingPlan, req Request) bool
}

// ArrivalBounder is an optional VTPlanner extension reporting the latest
// arrival a vehicle can still achieve (deepest feasible dip). Committed
// vehicles — those already inside their stopping distance — get their slot
// clamped to this bound: their crossing happens in that window no matter
// what, so booking the truth protects future grants.
type ArrivalBounder interface {
	LatestArrival(now float64, req Request) float64
}

// ArrivalWindower is an optional VTPlanner extension constraining arrivals
// to policy-defined service windows — the signalized baseline's green
// phases. AlignArrival returns the start and end of the earliest window for
// the movement containing or following t (start >= t when t falls outside a
// window, start <= t <= end otherwise). The core books only inside windows
// for plannable vehicles; committed vehicles bypass the discipline — they
// physically cannot stop, and the reservation book still keeps the crossing
// conflict-free.
type ArrivalWindower interface {
	AlignArrival(m intersection.MovementID, t float64) (start, end float64)
}

// PriorityPolicy is an optional VTPlanner extension mapping each request to
// a bid (its priority class; 0 = regular traffic). Bids shape the core two
// ways: seniority becomes bid-weighted, so a high-bid vehicle's slot search
// ignores lower-bid placeholders; and positive bidders attempt slot
// preemption — rebooking lower-bid reservations later via the revision
// cascade, with full rollback when any displaced grant cannot be safely
// revised. Bids must stay below 2^20 so the seniority stride keeps first
// contact order within a class.
type PriorityPolicy interface {
	Bid(req Request) int64
}

// senBidStride separates priority classes in the seniority order while
// preserving first-contact order within a class.
const senBidStride = int64(1) << 40

// VTCoreConfig parameterizes the shared scheduler.
type VTCoreConfig struct {
	// Buffers is the per-policy footprint inflation.
	Buffers safety.Buffers
	// Margin is extra temporal clearance between occupancies (s).
	Margin float64
	// Cost models computation delay.
	Cost CostModel
	// SpatialMargin is the extra clearance in meters between occupancies
	// (converted to time at each reservation's crossing speed); it covers
	// trajectory-tracking error and should scale with the sensing buffer,
	// not the policy's full planning buffer.
	SpatialMargin float64
	// TableStep is the conflict-table sampling resolution (m); 0 uses the
	// table default.
	TableStep float64
	// RefLength and RefWidth are the reference vehicle body dimensions
	// used to build the conflict table (use the largest vehicle in a
	// heterogeneous fleet).
	RefLength, RefWidth float64
	// WCRTD is the command latency used when revising grants (s).
	WCRTD float64
}

// CommandLatency returns the revision command latency.
func (c VTCoreConfig) CommandLatency() float64 {
	if c.WCRTD > 0 {
		return c.WCRTD
	}
	return 0.15
}

// VTCore is the shared FIFO velocity-transaction scheduler: it owns the
// reservation book and turns each request into the earliest conflict-free
// (arrival, speed) pair the planner can achieve.
//
// It also enforces per-lane FIFO: vehicles cannot pass each other on a
// lane, so a request is only grantable if every vehicle physically ahead in
// the same lane already holds a booking, and never earlier than the last of
// those bookings. Without this, a rear vehicle's request (processed while
// the book happens to be empty) books the earliest slot it could never
// physically reach past its stopped leaders — and that phantom booking
// starves the true queue head.
type VTCore struct {
	name string
	// pushes holds IM-initiated revisions awaiting transmission.
	pushes  []Push
	x       *intersection.Intersection
	book    *Book
	planner VTPlanner
	cfg     VTCoreConfig
	rng     *rand.Rand

	// order tracks physical queue order per entry lane.
	order *LaneOrder
	// seniority orders vehicles by first contact (for placeholder
	// precedence); a PriorityPolicy planner shifts it by bid class.
	seniority map[int64]int64
	nextSen   int64
	// bids remembers each vehicle's priority class (PriorityPolicy only).
	bids map[int64]int64
}

// NewVTCore builds the scheduler, constructing the policy's conflict table
// from the reference footprint inflated by the policy's buffers.
func NewVTCore(name string, x *intersection.Intersection, planner VTPlanner, cfg VTCoreConfig, rng *rand.Rand) (*VTCore, error) {
	if planner == nil {
		return nil, fmt.Errorf("im: nil planner")
	}
	if cfg.RefLength <= 0 || cfg.RefWidth <= 0 {
		return nil, fmt.Errorf("im: reference footprint %vx%v must be positive", cfg.RefLength, cfg.RefWidth)
	}
	planLen, planWid := cfg.Buffers.InflatedDims(cfg.RefLength, cfg.RefWidth)
	table, err := intersection.CachedConflictTable(x, planLen, planWid, cfg.TableStep)
	if err != nil {
		return nil, err
	}
	return &VTCore{
		name:      name,
		x:         x,
		book:      NewBook(x, table, cfg.Margin, cfg.SpatialMargin),
		planner:   planner,
		cfg:       cfg,
		rng:       rng,
		order:     NewLaneOrder(),
		seniority: make(map[int64]int64),
	}, nil
}

// Name implements Scheduler.
func (c *VTCore) Name() string { return c.name }

// SetTrace implements TraceSetter: the core's only traced internals are
// the reservation-book mutations.
func (c *VTCore) SetTrace(rec *trace.Recorder) { c.book.SetTrace(rec) }

// Book exposes the reservation ledger (tests and the viz tool read it).
func (c *VTCore) Book() *Book { return c.book }

// HandleRequest implements Scheduler: enforce lane order, plan, search the
// book for the earliest feasible slot, record the reservation, and reply.
func (c *VTCore) HandleRequest(now float64, req Request) (Response, float64) {
	cost := c.cfg.Cost.RequestCost(c.rng, c.book.Len())

	var bid int64
	prio, hasPrio := c.planner.(PriorityPolicy)
	if hasPrio {
		bid = prio.Bid(req)
		if c.bids == nil {
			c.bids = make(map[int64]int64)
		}
		c.bids[req.VehicleID] = bid
	}

	sen, ok := c.seniority[req.VehicleID]
	if !ok {
		// Bid-weighted seniority: a whole-class stride per bid keeps every
		// higher class senior to every lower one while preserving
		// first-contact order within a class.
		sen = c.nextSen - bid*senBidStride
		c.nextSen++
		c.seniority[req.VehicleID] = sen
	}

	// Lane FIFO: every vehicle ahead must already be booked, and our
	// arrival can be no earlier than the last of theirs. Committed
	// vehicles cannot act on a stop command, so for them an unbooked
	// leader merely stops raising the floor.
	c.order.Update(req.VehicleID, req.Movement, req.DistToEntry)
	floor := 0.0
	for _, id := range c.order.Ahead(req.VehicleID, req.DistToEntry) {
		r, booked := c.book.Get(id)
		if !booked {
			if req.Committed {
				continue
			}
			// An unbooked leader blocks the lane: command a stop.
			c.book.Remove(req.VehicleID)
			return Response{Kind: RespVelocity, TargetSpeed: 0}, cost
		}
		if r.ToA+1e-3 > floor {
			floor = r.ToA + 1e-3
		}
	}

	earliest, planFor, respond, err := c.planner.Plan(now, req)
	if err != nil {
		// Unplannable request (degenerate kinematics): command a stop
		// without booking; the vehicle stops safely and re-requests.
		c.book.Remove(req.VehicleID)
		return Response{Kind: RespVelocity, TargetSpeed: 0}, cost
	}
	if floor > earliest {
		earliest = floor
	}
	if req.MinArrival > earliest {
		// Green-wave offset from the coordination plane: arrive at the
		// tail of the downstream granted flow instead of ahead of it.
		earliest = req.MinArrival
	}
	windower, hasWindow := c.planner.(ArrivalWindower)
	if hasWindow && !req.Committed {
		if s, _ := windower.AlignArrival(req.Movement, earliest); s > earliest {
			earliest = s
		}
	}
	planLen := req.Params.Length + 2*c.cfg.Buffers.Long
	toa, plan, err := c.book.EarliestFeasible(req.VehicleID, sen, req.Movement, planLen, earliest, planFor)
	if err != nil {
		c.book.Remove(req.VehicleID)
		return Response{Kind: RespVelocity, TargetSpeed: 0}, cost
	}
	if hasWindow && !req.Committed {
		// The conflict search may have pushed the arrival past the green's
		// end; realign to the next window and re-search until the slot
		// lands inside one. Arrival time is monotonically nondecreasing
		// across rounds, so the loop terminates; if the horizon cap trips,
		// the out-of-window slot stands — the book still keeps it safe.
		for round := 0; round < 32; round++ {
			s, e := windower.AlignArrival(req.Movement, toa)
			if toa >= s-1e-9 && toa <= e+1e-9 {
				break
			}
			toa, plan, err = c.book.EarliestFeasible(req.VehicleID, sen, req.Movement, planLen, s, planFor)
			if err != nil {
				c.book.Remove(req.VehicleID)
				return Response{Kind: RespVelocity, TargetSpeed: 0}, cost
			}
		}
	}
	if hasPrio && !req.Committed && bid > 0 {
		if ptoa, pplan, pushes, ok := c.tryPreempt(now, req, sen, bid, planLen, earliest, planFor, toa); ok {
			toa, plan = ptoa, pplan
			c.pushes = append(c.pushes, pushes...)
		}
	}
	if req.Committed {
		// The crossing will happen within [earliest, latest] regardless of
		// what anyone wants; book the truth (clamping a conflicted push
		// back to the reachable window) so every later grant sees it.
		if b, ok := c.planner.(ArrivalBounder); ok {
			if latest := b.LatestArrival(now, req); toa > latest {
				toa = latest
				plan = planFor(toa)
			}
		}
		rebooked := Reservation{
			VehicleID: req.VehicleID,
			Movement:  req.Movement,
			Params:    req.Params,
			ToA:       toa,
			Plan:      plan,
			PlanLen:   planLen,
			Seniority: sen,
		}
		c.book.Add(rebooked)
		// The truth may invalidate earlier grants; revise the ones that
		// can still comply and push them fresh commands — the capability
		// a timed-command interface has and a yes/no one lacks.
		c.pushes = append(c.pushes, ReviseConflicts(c.book, rebooked, now, c.cfg.CommandLatency(), 0.1)...)
		return respond(toa, plan), cost
	}
	if v, ok := c.planner.(SlotVerifier); ok && !v.VerifySlot(now, toa, plan, req) {
		// The slot cannot be realized by this policy's actuation: command
		// a stop and the vehicle will re-request — but keep the found slot
		// booked as a *placeholder* at a plausible crossing speed, so that
		// later cross traffic cannot keep stealing the stopped vehicle's
		// turn (head-of-line protection against starvation). The
		// placeholder is replaced by the vehicle's next request.
		holdPlan := plan
		if min := 0.25 * req.Params.MaxSpeed; holdPlan.EntrySpeed < min {
			holdPlan = AccelPlan(toa, min, req.Params.MaxSpeed, req.Params.MaxAccel)
		}
		c.book.Add(Reservation{
			VehicleID:   req.VehicleID,
			Movement:    req.Movement,
			Params:      req.Params,
			ToA:         toa,
			Plan:        holdPlan,
			PlanLen:     planLen,
			Placeholder: true,
			Seniority:   sen,
		})
		return Response{Kind: RespVelocity, TargetSpeed: 0}, cost
	}
	c.book.Add(Reservation{
		VehicleID: req.VehicleID,
		Movement:  req.Movement,
		Params:    req.Params,
		ToA:       toa,
		Plan:      plan,
		PlanLen:   planLen,
		Seniority: sen,
	})
	c.book.PruneBefore(now - 2)
	return respond(toa, plan), cost
}

// TakePushes implements Pusher: drain pending IM-initiated revisions.
func (c *VTCore) TakePushes() []Push {
	out := c.pushes
	c.pushes = nil
	return out
}

// HandleExit implements Scheduler: release the vehicle's reservation and
// drop it from its lane queue.
func (c *VTCore) HandleExit(now float64, vehicleID int64) {
	c.book.Remove(vehicleID)
	c.order.Remove(vehicleID)
	delete(c.seniority, vehicleID)
	delete(c.bids, vehicleID)
}

// FlowHorizons implements FlowReporter for the coordination plane: the
// latest granted box-entry time per outgoing segment (indexed by exit
// direction) among reservations not yet in the past. Placeholders count —
// a stopped vehicle holding its head-of-line slot is still flow the
// downstream neighbor will eventually receive.
func (c *VTCore) FlowHorizons(now float64) [intersection.NumApproaches]float64 {
	var h [intersection.NumApproaches]float64
	for _, r := range c.book.sorted() {
		if r.ToA < now {
			continue
		}
		exit := c.x.Movement(r.Movement).Exit
		if r.ToA > h[exit] {
			h[exit] = r.ToA
		}
	}
	return h
}

// DeferResponse implements CoordDeferrer: hold the vehicle short of the
// line with a stop command. Any stale booking is released first — exactly
// the blocked-lane stop path — so the held slot cannot shadow-book the
// box while the vehicle waits out the downstream queue.
func (c *VTCore) DeferResponse(req Request) Response {
	c.book.Remove(req.VehicleID)
	return Response{Kind: RespVelocity, TargetSpeed: 0}
}

// PruneGhost implements GhostPruner: drop a silent vehicle's lane-FIFO
// slot, seniority, and stale booking — but refuse while it holds a
// reservation whose crossing is not comfortably in the past (the 2 s grace
// matches the book's own PruneBefore horizon): a granted vehicle is silent
// by design until its exit report.
func (c *VTCore) PruneGhost(now float64, vehicleID int64) bool {
	if r, ok := c.book.Get(vehicleID); ok && r.ToA > now-2 {
		return false
	}
	c.HandleExit(now, vehicleID)
	return true
}
