// Package batch implements the slot-based batching baseline discussed in
// the paper's Related Works (Tachet et al., "Revisiting street
// intersections using slot-based systems", PLOS ONE 2016): instead of
// granting each request immediately in FIFO order, the IM holds requests
// for a re-organization window and schedules each batch in an order chosen
// to reduce total delay — vehicles from the same approach are grouped so
// platoons share the box.
//
// The paper notes the approach doubles fair-scheduling throughput in
// simulation but inflates computation and network load (every vehicle
// waits a full window before receiving its command), increasing the
// effective WC-RTD; like plain VT-IM it is implemented here on top of the
// shared reservation book, anchored Crossroads-style (TE = release time of
// the batch + WC-RTD margin) so the batching delay itself stays safe.
package batch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
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
	// Window is the re-organization period (s): requests arriving within
	// the same window are scheduled together.
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

// pending is a request waiting for its batch to be released.
type pending struct {
	req        im.Request
	receivedAt float64
}

// Scheduler is the batching velocity-transaction manager. Because the
// im.Server protocol is strictly request/response, the batch window is
// realized as *computation delay*: the first request of a window is
// answered after the window closes, and every response in the batch is
// computed against the batch-wide ordering. The server serializes
// processing, so the per-request costs returned here reproduce the
// batching latency the paper attributes to this design.
type Scheduler struct {
	x     *intersection.Intersection
	book  *im.Book
	cfg   Config
	rng   *rand.Rand
	order *im.LaneOrder

	buffers   safety.Buffers
	seniority map[int64]int64
	nextSen   int64

	window   []pending
	windowAt float64 // when the current window opened
	pushes   []im.Push
	// Batches counts released windows; Reordered counts vehicles whose
	// batch position differed from arrival order.
	Batches   int
	Reordered int
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
		seniority: make(map[int64]int64),
	}, nil
}

// Name implements im.Scheduler.
func (s *Scheduler) Name() string { return PolicyName }

// SetTrace implements im.TraceSetter: like the VT cores, the batch
// scheduler's traced internals are its reservation-book mutations.
func (s *Scheduler) SetTrace(rec *trace.Recorder) { s.book.SetTrace(rec) }

// HandleRequest implements im.Scheduler. Requests are buffered until the
// window that contains them closes; the response for each is computed with
// the whole batch visible and the window remainder charged as computation
// delay, so vehicles receive their commands when the window ends — the
// batching latency of the design.
func (s *Scheduler) HandleRequest(now float64, req im.Request) (im.Response, float64) {
	if len(s.window) == 0 || now >= s.windowAt+s.cfg.Window {
		// Release whatever was pending and open a fresh window.
		s.releaseWindow()
		s.windowAt = now
	}
	s.window = append(s.window, pending{req: req, receivedAt: now})
	s.order.Update(req.VehicleID, req.Movement, req.DistToEntry)

	// Schedule this request within the batch context accumulated so far;
	// the re-organization happens by approach grouping in batchOrder.
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

// releaseWindow finalizes the current window's statistics.
func (s *Scheduler) releaseWindow() {
	if len(s.window) == 0 {
		return
	}
	s.Batches++
	ordered := s.batchOrder(s.window)
	for i, p := range ordered {
		if p.req.VehicleID != s.window[i].req.VehicleID {
			s.Reordered++
		}
	}
	s.window = s.window[:0]
}

// batchOrder sorts a batch to group same-approach vehicles (platooning
// through the box beats alternating approaches, whose crossings must be
// fully serialized).
func (s *Scheduler) batchOrder(batch []pending) []pending {
	out := append([]pending(nil), batch...)
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := out[i].req.Movement.Approach, out[j].req.Movement.Approach
		if ai != aj {
			return ai < aj
		}
		return out[i].req.DistToEntry < out[j].req.DistToEntry
	})
	return out
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

	vc := math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te := req.TransmitTime + s.cfg.Window + s.cfg.Spec.WorstRTD
	if req.Committed {
		// Corrections bypass the window.
		te = req.TransmitTime + s.cfg.Spec.WorstRTD
	}
	de := math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	etaDelay, vEarliest, _ := kinematics.EarliestArrival(te, de, vc, req.Params)
	earliest := math.Max(te+etaDelay, floor)
	if vEarliest < s.cfg.MinCrossSpeed {
		vEarliest = s.cfg.MinCrossSpeed
	}
	planFor := func(toa float64) im.CrossingPlan {
		vArr := vEarliest
		prof, perr := kinematics.PlanArrival(te, de, vc, toa, req.Params)
		if perr != nil {
			_, _, prof = kinematics.EarliestArrival(te, de, vc, req.Params)
		} else if toa > earliest+1e-6 {
			vArr = prof.VelocityAt(prof.TimeAtDistance(de))
			if vArr < s.cfg.MinCrossSpeed {
				vArr = s.cfg.MinCrossSpeed
			}
		}
		plan := im.AccelPlan(toa, vArr, req.Params.MaxSpeed, req.Params.MaxAccel)
		plan.Approach = prof
		plan.ApproachDist = de
		return plan
	}
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
		if latest := s.latestArrival(te, de, vc, req.Params); toa > latest {
			toa = latest
			plan = planFor(toa)
		}
	}
	reachable := true
	if prof, perr := kinematics.PlanArrival(te, de, vc, toa, req.Params); perr == nil &&
		math.Abs(prof.TimeAtDistance(de)-toa) > 0.05 {
		reachable = false
	}
	if !req.Committed && (!reachable || !s.dwellClearsLip(te, de, vc, toa, req.Params)) {
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
		ExecuteAt:   te,
		ArriveAt:    toa,
	}
}

// latestArrival returns the latest arrival *safely* reachable from the
// request state: infinite when the vehicle can still wait behind the lip,
// else the deepest no-dwell dip floored at the minimum crossing speed.
// A stop-and-dwell plan past the lip's stopping point would park the nose
// inside crossing movements' conflict zones, so dwells don't count.
func (s *Scheduler) latestArrival(te, de, vc float64, params kinematics.Params) float64 {
	lip := s.cfg.RefWidth/2 + 2*s.cfg.Spec.SensingBuffer() + 0.05 + s.cfg.RefLength/2
	if params.StoppingDistance(vc) < de-lip {
		return math.Inf(1)
	}
	eta, ok := kinematics.LatestNoDwell(de, vc, s.cfg.MinCrossSpeed, params)
	if !ok {
		return te
	}
	return te + eta
}

// dwellClearsLip reports whether the dip plan for (te, de, vc, toa) keeps
// any future dwell behind the conflict-zone lip, mirroring the Crossroads
// scheduler's check.
func (s *Scheduler) dwellClearsLip(te, de, vc, toa float64, params kinematics.Params) bool {
	prof, err := kinematics.PlanArrival(te, de, vc, toa, params)
	if err != nil {
		return true // earliest-arrival grants never dwell
	}
	minV, remaining := kinematics.SlowestPoint(prof, de)
	if minV >= 0.3 || remaining >= de-1e-6 {
		return true
	}
	lip := s.cfg.RefWidth/2 + 2*s.cfg.Spec.SensingBuffer() + 0.05 + s.cfg.RefLength/2
	return remaining >= lip-1e-6
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
