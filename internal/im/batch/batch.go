// Package batch implements the slot-based batching baseline discussed in
// the paper's Related Works (Tachet et al., "Revisiting street
// intersections using slot-based systems", PLOS ONE 2016): the IM answers
// requests only at the end of a fixed re-organization window.
//
// The paper notes the approach doubles fair-scheduling throughput in
// simulation but inflates computation and network load (every vehicle
// waits out a window before receiving its command), increasing the
// effective WC-RTD. Here it is a Crossroads-anchored scheduler on the
// shared reservation book: each request is scheduled in arrival order,
// and its command executes at TE = TT + window + WC-RTD, so the window's
// wait stays inside the deterministic anchoring, and its reply is held
// until the window closes.
package batch

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/safety"
	"crossroads/internal/trace"
)

// PolicyName is the scheduler name reported in results.
const PolicyName = "batch"

// Config parameterizes the batch scheduler.
type Config struct {
	// Spec supplies the uncertainty bounds; batching buffers sensing +
	// sync (commands are time-anchored like Crossroads).
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost im.CostModel
	// Window is the re-organization period (s): replies to the requests
	// that arrive within one window leave together when it closes.
	Window float64
	// Margin and MinCrossSpeed as in the other velocity-transaction IMs.
	Margin        float64
	MinCrossSpeed float64
	// RefLength and RefWidth are the reference vehicle body dimensions.
	RefLength, RefWidth float64
	// TableStep is the conflict-table sampling resolution (m).
	TableStep float64
}

// DefaultConfig returns a testbed-scaled configuration with a 0.25 s
// re-organization window.
//
// Deployment constraint: the approach must be long enough that a vehicle
// is still stop-capable when its command arrives — roughly
// ApproachLen > v*(Window+WCRTD) + v^2/(2*decel) + stop-line offset. The
// full-scale geometry satisfies this comfortably; the paper's 3 m scale
// approach only does at light load, which is why Tachet et al. evaluate
// slot-based batching on long approaches.
func DefaultConfig() Config {
	return Config{
		Spec:          safety.TestbedSpec(),
		Cost:          im.TestbedCostModel(),
		Window:        0.25,
		Margin:        0.05,
		MinCrossSpeed: 0.1,
		RefLength:     0.568,
		RefWidth:      0.296,
	}
}

// Scheduler is the batching velocity-transaction manager. Because the
// im.Server protocol is strictly request/response, the batch window is
// realized as a held reply: the first request after a window closes opens
// the next one, each request is scheduled on arrival with its TE past the
// window, and the server holds every reply until the window closes
// (ReleaseAt), which reproduces the batching latency the paper attributes
// to this design.
type Scheduler struct {
	x     *intersection.Intersection
	book  *im.Book
	cfg   Config
	rng   *rand.Rand
	order *im.LaneOrder

	buffers   safety.Buffers
	lip       float64
	seniority map[int64]int64
	nextSen   int64

	windowAt float64 // when the current window opened
	pushes   []im.Push
}

// New builds the batch scheduler over the intersection.
func New(x *intersection.Intersection, cfg Config, rng *rand.Rand) (*Scheduler, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("batch: Window %v must be positive", cfg.Window)
	}
	if cfg.RefLength <= 0 || cfg.RefWidth <= 0 {
		return nil, fmt.Errorf("batch: reference footprint %vx%v must be positive", cfg.RefLength, cfg.RefWidth)
	}
	buffers := cfg.Spec.ForCrossroads()
	planLen, planWid := buffers.InflatedDims(cfg.RefLength, cfg.RefWidth)
	table, err := intersection.CachedConflictTable(x, planLen, planWid, cfg.TableStep)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		x:         x,
		book:      im.NewBook(x, table, cfg.Margin, 2*cfg.Spec.SensingBuffer()),
		cfg:       cfg,
		rng:       rng,
		order:     im.NewLaneOrder(),
		buffers:   buffers,
		lip:       cfg.Spec.LipDist(cfg.RefLength, cfg.RefWidth),
		seniority: make(map[int64]int64),
		windowAt:  math.Inf(-1),
	}, nil
}

// Name implements im.Scheduler.
func (s *Scheduler) Name() string { return PolicyName }

// SetTrace implements im.TraceSetter: like the VT cores, the batch
// scheduler's traced internals are its reservation-book mutations.
func (s *Scheduler) SetTrace(rec *trace.Recorder) { s.book.SetTrace(rec) }

// HandleRequest implements im.Scheduler: open a new window if the current
// one has closed, then schedule the request at once. The cost is
// computation only; ReleaseAt holds the reply until the window closes.
func (s *Scheduler) HandleRequest(now float64, req im.Request) (im.Response, float64) {
	if now >= s.windowAt+s.cfg.Window {
		s.windowAt = now
	}
	s.order.Update(req.VehicleID, req.Movement, req.DistToEntry)
	resp := s.schedule(now, req)
	return resp, s.cfg.Cost.RequestCost(s.rng, s.book.Len())
}

// ReleaseAt implements im.Deferred: replies leave when the window closes.
// Committed truth-reports are corrections, not scheduling requests, and
// leave immediately.
func (s *Scheduler) ReleaseAt(now float64, req im.Request) float64 {
	if req.Committed {
		return now
	}
	return s.windowAt + s.cfg.Window
}

// schedule grants one request Crossroads-style: the command executes at
// TE = TT + window + WC-RTD (the batch latency is part of the anchoring,
// so the vehicle's position at TE stays deterministic).
func (s *Scheduler) schedule(now float64, req im.Request) im.Response {
	sen, ok := s.seniority[req.VehicleID]
	if !ok {
		sen = s.nextSen
		s.nextSen++
		s.seniority[req.VehicleID] = sen
	}
	if err := req.Params.Validate(); err != nil {
		return im.Response{Kind: im.RespVelocity, TargetSpeed: 0}
	}

	// Lane FIFO floor, as in the shared VT core.
	floor := 0.0
	for _, id := range s.order.Ahead(req.VehicleID, req.DistToEntry) {
		r, booked := s.book.Get(id)
		if !booked {
			if !req.Committed {
				s.book.Remove(req.VehicleID)
				return im.Response{Kind: im.RespVelocity, TargetSpeed: 0}
			}
			continue
		}
		if r.ToA+1e-3 > floor {
			floor = r.ToA + 1e-3
		}
	}

	te := req.TransmitTime + s.cfg.Window + s.cfg.Spec.WorstRTD
	if req.Committed {
		// Corrections bypass the window.
		te = req.TransmitTime + s.cfg.Spec.WorstRTD
	}
	a := im.AnchorRequest(req, te, s.cfg.MinCrossSpeed)
	earliest, vEarliest := a.Earliest()
	earliest = math.Max(earliest, floor)
	planFor := func(toa float64) im.CrossingPlan { return a.Plan(toa, earliest, vEarliest) }
	planLen := req.Params.Length + 2*s.buffers.Long
	toa, plan, err := s.book.EarliestFeasible(req.VehicleID, sen, req.Movement, planLen, earliest, planFor)
	if err != nil {
		s.book.Remove(req.VehicleID)
		return im.Response{Kind: im.RespVelocity, TargetSpeed: 0}
	}
	if req.Committed {
		// A committed vehicle's crossing happens within its physical
		// window no matter what: clamp the booking to the latest arrival
		// it can still realize so the book reflects the truth.
		if latest, _ := a.Latest(s.lip); toa > latest {
			toa = latest
			plan = planFor(toa)
		}
	} else if !a.Realizable(toa, s.lip) {
		// The approach plan would park inside the conflict-zone lip: hold
		// the slot as a placeholder and command a stop instead.
		hold := plan
		if min := 0.25 * req.Params.MaxSpeed; hold.EntrySpeed < min {
			hold = im.AccelPlan(toa, min, req.Params.MaxSpeed, req.Params.MaxAccel)
		}
		s.book.Add(im.Reservation{
			VehicleID: req.VehicleID, Movement: req.Movement, Params: req.Params, ToA: toa,
			Plan: hold, PlanLen: planLen, Placeholder: true, Seniority: sen,
		})
		return im.Response{Kind: im.RespVelocity, TargetSpeed: 0}
	}
	booked := im.Reservation{
		VehicleID: req.VehicleID,
		Movement:  req.Movement,
		Params:    req.Params,
		ToA:       toa,
		Plan:      plan,
		PlanLen:   planLen,
		Seniority: sen,
	}
	s.book.Add(booked)
	if req.Committed {
		// The truth may invalidate earlier grants; revise the ones that
		// can still comply and push them fresh commands.
		s.pushes = append(s.pushes, im.ReviseConflicts(s.book, booked, now, s.cfg.Spec.WorstRTD, s.cfg.MinCrossSpeed)...)
	}
	s.book.PruneBefore(now - 2)
	return im.Response{
		Kind:        im.RespTimed,
		TargetSpeed: plan.EntrySpeed,
		ExecuteAt:   a.TE,
		ArriveAt:    toa,
	}
}

// TakePushes implements im.Pusher: drain pending revisions.
func (s *Scheduler) TakePushes() []im.Push {
	out := s.pushes
	s.pushes = nil
	return out
}

// HandleExit implements im.Scheduler.
func (s *Scheduler) HandleExit(now float64, vehicleID int64) {
	s.book.Remove(vehicleID)
	s.order.Remove(vehicleID)
	delete(s.seniority, vehicleID)
}

// PruneGhost implements im.GhostPruner: drop a silent vehicle's
// bookkeeping, refusing while it still holds a reservation whose crossing
// is not comfortably past (granted vehicles are silent until exit).
func (s *Scheduler) PruneGhost(now float64, vehicleID int64) bool {
	if r, ok := s.book.Get(vehicleID); ok && r.ToA > now-2 {
		return false
	}
	s.HandleExit(now, vehicleID)
	return true
}

// Book exposes the ledger for tests.
func (s *Scheduler) Book() *im.Book { return s.book }
