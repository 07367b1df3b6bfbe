// Package dot implements a discrete-time occupancies-trajectory
// intersection manager after Lu & Kim (arxiv 1705.05231): the conflict
// box is rasterized into an N x N tile grid and time into fixed steps,
// and every grant is the trajectory's exact footprint over (tile, step)
// pairs rather than a movement-pair conflict interval.
//
// Unlike AIM's propose/veto exchange, dot speaks the Crossroads timed
// protocol: requests carry (TT, DT, VC), the IM anchors planning at
// TE = TT + WC-RTD where the vehicle's position is deterministic, and the
// reply is a full (TE, ToA, VT) trajectory command. The IM owns the slot
// search — candidate arrival times are scanned forward from the earliest
// reachable arrival in fixed quanta until the swept footprint fits the
// free tiles — so the policy composes tile-granularity admission with
// time-sensitive actuation.
//
// A committed vehicle (past its point of no return) is booked at its
// truthful max-acceleration arrival unconditionally; any grants its
// footprint now overlaps are revised onto later conflict-free slots and
// pushed to their vehicles, mirroring the Crossroads revision cascade.
package dot

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "dot"

// Config parameterizes the dot scheduler.
type Config struct {
	// Spec supplies the uncertainty bounds; like Crossroads, dot buffers
	// sensing + sync only (positions at TE are deterministic).
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost im.CostModel
	// GridN is the tile grid resolution (N x N over the conflict box).
	GridN int
	// TimeStep is the occupancy discretization quantum (s).
	TimeStep float64
	// Horizon bounds how far past the earliest reachable arrival the
	// candidate-slot scan looks before giving up with a stop command (s).
	Horizon float64
	// MinCrossSpeed floors granted crossing speeds so footprints stay
	// finite (m/s).
	MinCrossSpeed float64
}

// DefaultConfig returns a testbed-scaled configuration.
func DefaultConfig() Config {
	return Config{
		Spec:          safety.TestbedSpec(),
		Cost:          im.TestbedCostModel(),
		GridN:         8,
		TimeStep:      0.1,
		Horizon:       40,
		MinCrossSpeed: 0.1,
	}
}

// grant is one live reservation: everything needed to re-check exit
// merges against it and to revise it when a committed vehicle lands on
// its footprint.
type grant struct {
	movement intersection.MovementID
	params   kinematics.Params
	toa      float64
	res      im.Reservation
	steps    intersection.Occupancy
	exit     im.ExitCrossing
}

// Scheduler is the dot intersection manager for one node.
type Scheduler struct {
	x       *intersection.Intersection
	grid    *intersection.TileGrid
	res     *intersection.Reservations
	cfg     Config
	rng     *rand.Rand
	buffers safety.Buffers
	grants  map[int64]*grant
	order   *im.LaneOrder
	pushes  []im.Push
	// scanStep is the candidate-arrival quantum: coarser than TimeStep
	// (the tile slack absorbs sub-quantum placement) so saturated scans
	// stay cheap.
	scanStep float64
	wcRTD    float64
}

// New builds a dot scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*Scheduler, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.TimeStep > 0) || math.IsInf(cfg.TimeStep, 1) {
		return nil, fmt.Errorf("dot: TimeStep %v (dot.step) must be finite and positive", cfg.TimeStep)
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("dot: Horizon %v (dot.horizon) must be finite and positive", cfg.Horizon)
	}
	grid, err := intersection.NewTileGrid(x.Box(), cfg.GridN)
	if err != nil {
		return nil, fmt.Errorf("dot: dot.grid: %w", err)
	}
	return &Scheduler{
		x:        x,
		grid:     grid,
		res:      intersection.NewReservations(grid),
		cfg:      cfg,
		rng:      rng,
		buffers:  cfg.Spec.ForCrossroads(),
		grants:   make(map[int64]*grant),
		order:    im.NewLaneOrder(),
		scanStep: max(4*cfg.TimeStep, 0.1),
		wcRTD:    cfg.Spec.WorstRTD,
	}, nil
}

// Name implements im.Scheduler.
func (s *Scheduler) Name() string { return PolicyName }

// stop commands the vehicle to halt at the stop line and retry.
func stop() im.Response {
	return im.Response{Kind: im.RespVelocity, TargetSpeed: 0}
}

// lipFor is the vehicle's own safety.Spec.LipDist.
func (s *Scheduler) lipFor(p kinematics.Params) float64 {
	return s.cfg.Spec.LipDist(p.Length, p.Width)
}

// HandleRequest implements im.Scheduler: anchor the request at TE, scan
// candidate arrivals over the tile grid, and command the first fit.
func (s *Scheduler) HandleRequest(now float64, req im.Request) (im.Response, float64) {
	m := s.x.Movement(req.Movement)
	if m == nil || req.Params.Validate() != nil {
		return stop(), s.cfg.Cost.SimulationCost(s.rng, 1)
	}
	// A re-request supersedes any previous grant: free its footprint so
	// the vehicle does not collide with its own past self in the scan.
	if _, ok := s.grants[req.VehicleID]; ok {
		s.res.Release(req.VehicleID)
		delete(s.grants, req.VehicleID)
	}

	// Time-sensitive anchoring (Crossroads Chapter 6): plan from TE where
	// the position is deterministic.
	a := im.AnchorRequest(req, req.TransmitTime+s.wcRTD, s.cfg.MinCrossSpeed)

	// Lane FIFO: never schedule past an unbooked leader, and never ahead
	// of a booked one — a rear grant would starve the queue head it
	// cannot pass.
	s.order.Update(req.VehicleID, req.Movement, req.DistToEntry)
	floor := 0.0
	for _, id := range s.order.Ahead(req.VehicleID, req.DistToEntry) {
		g, ok := s.grants[id]
		if !ok {
			if req.Committed {
				continue
			}
			return stop(), s.cfg.Cost.SimulationCost(s.rng, 1)
		}
		if g.toa > floor {
			floor = g.toa
		}
	}

	truth, vEarliest := a.Earliest()
	earliest := truth
	if floor+s.scanStep > earliest {
		earliest = floor + s.scanStep
	}
	if req.MinArrival > earliest {
		earliest = req.MinArrival
	}

	if req.Committed {
		// The crossing is a physical fact: book the truthful arrival
		// unconditionally and push any displaced grants onto later slots.
		plan := a.Plan(truth, truth, vEarliest)
		steps, candExit, n := s.footprint(m, req.Params, truth, plan)
		s.res.Reserve(req.VehicleID, steps)
		s.grants[req.VehicleID] = &grant{
			movement: req.Movement, params: req.Params, toa: truth,
			res:   im.Reservation{ToA: truth, Plan: plan},
			steps: steps, exit: candExit,
		}
		s.reviseVictims(now, req.VehicleID, &steps)
		return im.Response{
			Kind:        im.RespTimed,
			TargetSpeed: plan.EntrySpeed,
			ExecuteAt:   a.TE,
			ArriveAt:    truth,
		}, s.cfg.Cost.SimulationCost(s.rng, n)
	}

	// Stop-capability bound: past the lip's stopping point there is no
	// safe waiting position, so arrivals beyond the deepest no-dwell dip
	// are unrealizable.
	latest, _ := a.Latest(s.lipFor(req.Params))

	toa, plan, steps, candExit, n, ok := s.findSlot(m, req.VehicleID, a, earliest, latest, vEarliest)
	cost := s.cfg.Cost.SimulationCost(s.rng, n)
	if !ok {
		return stop(), cost
	}
	s.res.Reserve(req.VehicleID, steps)
	s.grants[req.VehicleID] = &grant{
		movement: req.Movement, params: req.Params, toa: toa,
		res:   im.Reservation{ToA: toa, Plan: plan},
		steps: steps, exit: candExit,
	}
	s.res.PruneBefore(int64(math.Floor((now - 5) / s.cfg.TimeStep)))
	return im.Response{
		Kind:        im.RespTimed,
		TargetSpeed: plan.EntrySpeed,
		ExecuteAt:   a.TE,
		ArriveAt:    toa,
	}, cost
}

// findSlot scans candidate arrivals in scanStep quanta from earliest and
// returns the first whose approach is realizable, whose exit clears the
// merge rule, and whose swept footprint fits the free tiles. Excluded
// grants (the requester itself) are skipped in the exit check.
//
// The exit check needs no tiles, so it runs first, and the sweep stops at
// the first held tile. Each candidate is still charged every sample of
// its crossing, as a full sweep would take, so the cost model sees the
// same n whichever check refuses it.
func (s *Scheduler) findSlot(m *intersection.Movement, self int64, a im.Anchor, earliest, latest, vEarliest float64) (float64, im.CrossingPlan, intersection.Occupancy, im.ExitCrossing, int, bool) {
	lip := s.lipFor(a.Params)
	planLen, planWid := s.buffers.InflatedDims(a.Params.Length, a.Params.Width)
	end := min(latest, earliest+s.cfg.Horizon)
	n := 0
	for cand := earliest; cand <= end+1e-9; cand += s.scanStep {
		toa := min(cand, latest)
		if !a.Realizable(toa, lip) {
			// Later candidates dip deeper still: command a stop instead.
			break
		}
		plan := a.Plan(toa, earliest, vEarliest)
		cross := im.Reservation{ToA: toa, Plan: plan}
		candExit := im.ExitOf(m, cross, planLen)
		if !s.exitClear(self, candExit) {
			n += im.SweepSamples(m, cross, planLen, s.cfg.TimeStep)
			continue
		}
		steps, samples, fits := im.SweepTiles(s.grid, m, cross, planLen, planWid, s.cfg.TimeStep, s.res)
		n += samples
		if fits {
			return toa, plan, steps, candExit, n, true
		}
	}
	return 0, im.CrossingPlan{}, intersection.Occupancy{}, im.ExitCrossing{}, n + 1, false
}

// footprint simulates the box crossing and returns its whole tile
// footprint, its exit crossing, and the sample count for the cost model.
// The same one-step slack AIM claims absorbs tracking tolerance.
func (s *Scheduler) footprint(m *intersection.Movement, p kinematics.Params, toa float64, plan im.CrossingPlan) (intersection.Occupancy, im.ExitCrossing, int) {
	planLen, planWid := s.buffers.InflatedDims(p.Length, p.Width)
	cross := im.Reservation{ToA: toa, Plan: plan}
	steps, n, _ := im.SweepTiles(s.grid, m, cross, planLen, planWid, s.cfg.TimeStep, nil)
	return steps, im.ExitOf(m, cross, planLen), n
}

// exitClear checks the candidate exit against every live same-exit-lane
// grant (except self).
func (s *Scheduler) exitClear(self int64, cand im.ExitCrossing) bool {
	for id, g := range s.grants {
		if id == self || !g.exit.SameLane(cand) {
			continue
		}
		if !im.ExitSeparated(cand, g.exit, s.x.Config().ExitLen) {
			return false
		}
	}
	return true
}

// reviseVictims pushes every grant the cause's footprint overlaps onto a
// later conflict-free slot, Crossroads-style: the victim keeps flying its
// commanded approach until the revision executes at now + WC-RTD, so the
// new plan starts from its deterministic state then. A victim that
// cannot be moved (it is itself past the point of no return) keeps its
// slot — physics allows nothing else — exactly like the book's cascade.
func (s *Scheduler) reviseVictims(now float64, cause int64, causeSteps *intersection.Occupancy) {
	var victims []int64
	for id, g := range s.grants {
		if id != cause && causeSteps.Overlaps(&g.steps) {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		g := s.grants[id]
		a, ok := im.AnchorPlan(g.res.Plan, now+s.wcRTD, g.params, s.cfg.MinCrossSpeed)
		if !ok {
			continue
		}
		m := s.x.Movement(g.movement)
		if m == nil {
			continue
		}
		latest, ok := a.Latest(s.lipFor(g.params))
		if !ok {
			continue
		}
		earliest, vEarliest := a.Earliest()
		// Revisions only push later: never tempt the victim into an
		// earlier slot its controller may no longer reach.
		earliest = max(earliest, g.toa)
		s.res.Release(id)
		toa, plan, steps, candExit, _, found := s.findSlot(m, id, a, earliest, latest, vEarliest)
		if !found {
			s.res.Reserve(id, g.steps) // restore; the overlap stands, as physics dictates
			continue
		}
		s.res.Reserve(id, steps)
		g.toa = toa
		g.res = im.Reservation{ToA: toa, Plan: plan}
		g.steps = steps
		g.exit = candExit
		s.pushes = append(s.pushes, im.Push{VehicleID: id, Resp: im.Response{
			Kind:        im.RespTimed,
			TargetSpeed: plan.EntrySpeed,
			ExecuteAt:   a.TE,
			ArriveAt:    toa,
		}})
	}
}

// TakePushes implements im.Pusher: drain pending IM-initiated revisions.
func (s *Scheduler) TakePushes() []im.Push {
	p := s.pushes
	s.pushes = nil
	return p
}

// HandleExit implements im.Scheduler: free the vehicle's footprint.
func (s *Scheduler) HandleExit(now float64, vehicleID int64) {
	s.res.Release(vehicleID)
	delete(s.grants, vehicleID)
	s.order.Remove(vehicleID)
}

// PruneGhost implements im.GhostPruner: free a silent vehicle's footprint
// and lane-FIFO slot, refusing while its granted crossing is not
// comfortably past (a granted vehicle is silent until its exit report).
func (s *Scheduler) PruneGhost(now float64, vehicleID int64) bool {
	if g, ok := s.grants[vehicleID]; ok && g.toa > now-2 {
		return false
	}
	s.HandleExit(now, vehicleID)
	return true
}

// HeldPairs reports the current (tile, step) reservation count.
func (s *Scheduler) HeldPairs() int { return s.res.HeldPairs() }
