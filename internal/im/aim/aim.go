// Package aim implements the query-based AIM baseline of Dresner & Stone
// (paper Chapter 5, Algorithms 5-6): a vehicle proposes to enter at a time
// dictated by its current speed and distance; the IM simulates the
// resulting trajectory over a reservation tile grid and answers yes or no.
// A rejected vehicle slows down and asks again, so no round-trip-delay
// buffer is needed — but the IM cannot optimize (it can only veto), and the
// reject/re-request loop costs up to ~16x the computation and ~20x the
// network traffic of the velocity-transaction designs.
package aim

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/safety"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "aim"

// Config parameterizes the AIM scheduler.
type Config struct {
	// Spec supplies the uncertainty bounds; AIM buffers sensing + sync.
	Spec safety.Spec
	// Cost models IM computation delay; AIM's cost scales with the number
	// of trajectory samples simulated.
	Cost im.CostModel
	// GridN is the tile grid dimension (NxN over the box).
	GridN int
	// TimeStep is the reservation time quantum and trajectory-simulation
	// step (s).
	TimeStep float64
}

// DefaultConfig returns a testbed-scaled configuration: an 8x8 grid (15 cm
// tiles over the 1.2 m box) at 50 ms steps.
func DefaultConfig() Config {
	return Config{
		Spec:     safety.TestbedSpec(),
		Cost:     im.TestbedCostModel(),
		GridN:    8,
		TimeStep: 0.05,
	}
}

// Scheduler is the query-based reservation manager.
type Scheduler struct {
	x    *intersection.Intersection
	grid *intersection.TileGrid
	res  *intersection.Reservations
	cfg  Config
	rng  *rand.Rand

	buffers safety.Buffers
	// accepted maps vehicles with live reservations to their granted
	// arrival times.
	accepted map[int64]float64
	// exits tracks live reservations' box-exit crossings per exit lane so
	// merges beyond the tile grid stay separated (a faster follower would
	// otherwise catch a slow leader on the exit road, outside any tile).
	exits map[int64]im.ExitCrossing
	// order tracks physical queue order per entry lane.
	order *im.LaneOrder
	// Rejections counts denied proposals (the paper's trial-and-error
	// overhead).
	Rejections int
	// Accepts counts granted proposals.
	Accepts int
}

// New builds the AIM scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*Scheduler, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if !(cfg.TimeStep > 0) || math.IsInf(cfg.TimeStep, 1) {
		return nil, fmt.Errorf("aim: TimeStep %v (aim.step) must be finite and positive", cfg.TimeStep)
	}
	grid, err := intersection.NewTileGrid(x.Box(), cfg.GridN)
	if err != nil {
		return nil, fmt.Errorf("aim: aim.grid: %w", err)
	}
	return &Scheduler{
		x:        x,
		grid:     grid,
		res:      intersection.NewReservations(grid),
		cfg:      cfg,
		rng:      rng,
		buffers:  cfg.Spec.ForAIM(),
		accepted: make(map[int64]float64),
		exits:    make(map[int64]im.ExitCrossing),
		order:    im.NewLaneOrder(),
	}, nil
}

// Name implements im.Scheduler.
func (s *Scheduler) Name() string { return PolicyName }

// HandleRequest implements im.Scheduler: simulate the proposed
// constant-speed crossing over the tile grid and accept iff every
// (tile, step) it touches is free.
func (s *Scheduler) HandleRequest(now float64, req im.Request) (im.Response, float64) {
	m := s.x.Movement(req.Movement)
	if m == nil || req.CrossSpeed <= 0 || req.ProposedToA < now-1 {
		return im.Response{Kind: im.RespReject}, s.cfg.Cost.SimulationCost(s.rng, 1)
	}
	// A re-request supersedes any previous reservation.
	if _, ok := s.accepted[req.VehicleID]; ok {
		s.res.Release(req.VehicleID)
		delete(s.accepted, req.VehicleID)
		delete(s.exits, req.VehicleID)
	}
	// Lane FIFO: a proposal is only acceptable if every vehicle physically
	// ahead in the lane already holds a reservation, and never for an
	// arrival earlier than theirs — otherwise a rear vehicle's grant
	// starves the queue head it can never pass.
	s.order.Update(req.VehicleID, req.Movement, req.DistToEntry)
	for _, id := range s.order.Ahead(req.VehicleID, req.DistToEntry) {
		if req.Committed {
			break
		}
		toa, ok := s.accepted[id]
		if !ok || req.ProposedToA <= toa {
			s.Rejections++
			return im.Response{Kind: im.RespReject}, s.cfg.Cost.SimulationCost(s.rng, 1)
		}
	}
	planLen, planWid := s.buffers.InflatedDims(req.Params.Length, req.Params.Width)

	// The reserved trajectory enters at CrossSpeed and accelerates toward
	// top speed through the box (Dresner & Stone's reservations carry the
	// full simulated trajectory).
	cross := im.Reservation{
		ToA:  req.ProposedToA,
		Plan: im.AccelPlan(req.ProposedToA, req.CrossSpeed, req.Params.MaxSpeed, req.Params.MaxAccel),
	}

	// Exit-merge check: the proposal's box exit must clear every live
	// same-exit-lane reservation with enough margin that a faster follower
	// cannot catch its leader on the exit road.
	candExit := im.ExitOf(m, cross, planLen)
	for _, r := range s.exits {
		if req.Committed {
			break
		}
		if !r.SameLane(candExit) {
			continue
		}
		if !im.ExitSeparated(candExit, r, s.x.Config().ExitLen) {
			s.Rejections++
			return im.Response{Kind: im.RespReject}, s.cfg.Cost.SimulationCost(s.rng, 1)
		}
	}

	// A committed crossing is booked whatever it overlaps; any other must
	// fit the free tiles.
	var fit *intersection.Reservations
	if !req.Committed {
		fit = s.res
	}
	steps, nSamples, fits := im.SweepTiles(s.grid, m, cross, planLen, planWid, s.cfg.TimeStep, fit)
	cost := s.cfg.Cost.SimulationCost(s.rng, nSamples)
	if req.Committed {
		// A committed vehicle's crossing is a physical fact: re-reserve it
		// at its reported truth so future proposals are checked against
		// reality, and accept unconditionally.
		s.res.Reserve(req.VehicleID, steps)
		s.accepted[req.VehicleID] = req.ProposedToA
		s.exits[req.VehicleID] = candExit
		return im.Response{
			Kind:        im.RespAccept,
			TargetSpeed: req.CrossSpeed,
			ArriveAt:    req.ProposedToA,
		}, cost
	}
	if !fits {
		s.Rejections++
		return im.Response{Kind: im.RespReject}, cost
	}
	s.res.Reserve(req.VehicleID, steps)
	s.accepted[req.VehicleID] = req.ProposedToA
	s.exits[req.VehicleID] = candExit
	s.Accepts++
	s.res.PruneBefore(int64(math.Floor((now - 5) / s.cfg.TimeStep)))
	return im.Response{
		Kind:        im.RespAccept,
		TargetSpeed: req.CrossSpeed,
		ArriveAt:    req.ProposedToA,
	}, cost
}

// HandleExit implements im.Scheduler: free the vehicle's tiles.
func (s *Scheduler) HandleExit(now float64, vehicleID int64) {
	s.res.Release(vehicleID)
	delete(s.accepted, vehicleID)
	delete(s.exits, vehicleID)
	s.order.Remove(vehicleID)
}

// PruneGhost implements im.GhostPruner: free a silent vehicle's tiles and
// lane-FIFO slot, refusing while its accepted crossing is not comfortably
// past (an accepted vehicle is silent until its exit report).
func (s *Scheduler) PruneGhost(now float64, vehicleID int64) bool {
	if toa, ok := s.accepted[vehicleID]; ok && toa > now-2 {
		return false
	}
	s.HandleExit(now, vehicleID)
	return true
}

// HeldPairs reports the current (tile, step) reservation count.
func (s *Scheduler) HeldPairs() int { return s.res.HeldPairs() }
