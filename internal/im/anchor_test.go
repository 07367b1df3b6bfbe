package im

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// The reference copies below are the timed planners as each scheduler
// wrote them out before they shared Anchor: Crossroads' planner, batch's
// anchoring and slot checks, dot's plan, slot check and latest-arrival
// block, and the revision passes' anchoring. TestAnchorMatchesReferences
// pins every Anchor method to them bit for bit.

// refEarliest is the profile-returning earliest arrival the copies call.
func refEarliest(start, dist, vInit float64, p kinematics.Params) (float64, float64, kinematics.Profile) {
	eta, vArr := kinematics.EarliestArrival(dist, vInit, p)
	return eta, vArr, kinematics.EarliestProfile(start, dist, vInit, p)
}

// refLip is the lip formula each scheduler wrote out.
func refLip(spec safety.Spec, length, width float64) float64 {
	return width/2 + 2*spec.SensingBuffer() + 0.05 + length/2
}

// refCrossroads is the Crossroads planner's LatestArrival, VerifySlot and
// Plan.
type refCrossroads struct{ wcRTD, minSpeed, lipDist float64 }

func (p refCrossroads) LatestArrival(req Request) float64 {
	vc := math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te := req.TransmitTime + p.wcRTD
	de := math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	if req.Params.StoppingDistance(vc) < de-p.lipDist {
		return math.Inf(1)
	}
	eta, ok := kinematics.LatestNoDwell(de, vc, p.minSpeed, req.Params)
	if !ok {
		return te
	}
	return te + eta
}

func (p refCrossroads) VerifySlot(toa float64, req Request) bool {
	vc := math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te := req.TransmitTime + p.wcRTD
	de := math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	prof, err := kinematics.PlanArrival(te, de, vc, toa, req.Params)
	if err != nil {
		return true
	}
	if math.Abs(prof.TimeAtDistance(de)-toa) > 0.05 {
		return false
	}
	minV, remaining := kinematics.SlowestPoint(prof, de)
	if minV >= 0.3 {
		return true
	}
	if remaining >= de-1e-6 {
		return true
	}
	return remaining >= p.lipDist-1e-6
}

func (p refCrossroads) Plan(req Request) (earliest, vEarliest float64, planFor func(float64) CrossingPlan) {
	vc := math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te := req.TransmitTime + p.wcRTD
	de := req.DistToEntry - vc*(te-req.TransmitTime)
	if de < 0 {
		de = 0
	}
	etaDelay, vEarliest, _ := refEarliest(te, de, vc, req.Params)
	earliest = te + etaDelay
	if vEarliest < p.minSpeed {
		vEarliest = p.minSpeed
	}
	planFor = func(toa float64) CrossingPlan {
		vArr := vEarliest
		prof, err := kinematics.PlanArrival(te, de, vc, toa, req.Params)
		if err != nil {
			_, _, prof = refEarliest(te, de, vc, req.Params)
		} else if toa > earliest+1e-6 {
			vArr = prof.VelocityAt(prof.TimeAtDistance(de))
			if vArr < p.minSpeed {
				vArr = p.minSpeed
			}
		}
		plan := AccelPlan(toa, vArr, req.Params.MaxSpeed, req.Params.MaxAccel)
		plan.Approach = prof
		plan.ApproachDist = de
		return plan
	}
	return earliest, vEarliest, planFor
}

// refBatch is batch's anchoring (TE past the window, floored earliest),
// latestArrival and slot check (reachable && dwellClearsLip).
type refBatch struct {
	window, wcRTD, minSpeed, lip float64
}

func (s refBatch) anchor(req Request, floor float64) (te, de, vc, earliest, vEarliest float64, planFor func(float64) CrossingPlan) {
	vc = math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te = req.TransmitTime + s.window + s.wcRTD
	if req.Committed {
		te = req.TransmitTime + s.wcRTD
	}
	de = math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	etaDelay, vEarliest, _ := refEarliest(te, de, vc, req.Params)
	earliest = math.Max(te+etaDelay, floor)
	if vEarliest < s.minSpeed {
		vEarliest = s.minSpeed
	}
	planFor = func(toa float64) CrossingPlan {
		vArr := vEarliest
		prof, perr := kinematics.PlanArrival(te, de, vc, toa, req.Params)
		if perr != nil {
			_, _, prof = refEarliest(te, de, vc, req.Params)
		} else if toa > earliest+1e-6 {
			vArr = prof.VelocityAt(prof.TimeAtDistance(de))
			if vArr < s.minSpeed {
				vArr = s.minSpeed
			}
		}
		plan := AccelPlan(toa, vArr, req.Params.MaxSpeed, req.Params.MaxAccel)
		plan.Approach = prof
		plan.ApproachDist = de
		return plan
	}
	return te, de, vc, earliest, vEarliest, planFor
}

func (s refBatch) latestArrival(te, de, vc float64, params kinematics.Params) float64 {
	if params.StoppingDistance(vc) < de-s.lip {
		return math.Inf(1)
	}
	eta, ok := kinematics.LatestNoDwell(de, vc, s.minSpeed, params)
	if !ok {
		return te
	}
	return te + eta
}

func (s refBatch) realizable(te, de, vc, toa float64, params kinematics.Params) bool {
	reachable := true
	if prof, perr := kinematics.PlanArrival(te, de, vc, toa, params); perr == nil &&
		math.Abs(prof.TimeAtDistance(de)-toa) > 0.05 {
		reachable = false
	}
	return reachable && s.dwellClearsLip(te, de, vc, toa, params)
}

func (s refBatch) dwellClearsLip(te, de, vc, toa float64, params kinematics.Params) bool {
	prof, err := kinematics.PlanArrival(te, de, vc, toa, params)
	if err != nil {
		return true
	}
	minV, remaining := kinematics.SlowestPoint(prof, de)
	if minV >= 0.3 || remaining >= de-1e-6 {
		return true
	}
	return remaining >= s.lip-1e-6
}

// refDot is dot's anchoring with its floored earliest, latest block,
// realizable and buildPlan; lips come from each vehicle's own dims.
type refDot struct {
	spec               safety.Spec
	minSpeed, scanStep float64
}

func (s refDot) lipFor(p kinematics.Params) float64 {
	return p.Width/2 + 2*s.spec.SensingBuffer() + 0.05 + p.Length/2
}

func (s refDot) anchor(req Request, floor float64) (te, de, vc, truth, earliest, latest, vEarliest float64) {
	vc = math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	te = req.TransmitTime + s.spec.WorstRTD
	de = math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	etaDelay, vEarliest, _ := refEarliest(te, de, vc, req.Params)
	earliest = te + etaDelay
	if vEarliest < s.minSpeed {
		vEarliest = s.minSpeed
	}
	if floor+s.scanStep > earliest {
		earliest = floor + s.scanStep
	}
	if req.MinArrival > earliest {
		earliest = req.MinArrival
	}
	latest = math.Inf(1)
	lip := s.lipFor(req.Params)
	if req.Params.StoppingDistance(vc) >= de-lip {
		if eta, ok := kinematics.LatestNoDwell(de, vc, s.minSpeed, req.Params); ok {
			latest = te + eta
		} else {
			latest = te
		}
	}
	return te, de, vc, te + etaDelay, earliest, latest, vEarliest
}

func (s refDot) realizable(te, de, vc, toa, lip float64, p kinematics.Params) bool {
	prof, err := kinematics.PlanArrival(te, de, vc, toa, p)
	if err != nil {
		return true
	}
	if math.Abs(prof.TimeAtDistance(de)-toa) > 0.05 {
		return false
	}
	minV, remaining := kinematics.SlowestPoint(prof, de)
	if minV >= 0.3 {
		return true
	}
	if remaining >= de-1e-6 {
		return true
	}
	return remaining >= lip-1e-6
}

func (s refDot) buildPlan(te, de, vc, toa, earliest, vEarliest float64, p kinematics.Params) CrossingPlan {
	vArr := vEarliest
	prof, err := kinematics.PlanArrival(te, de, vc, toa, p)
	if err != nil {
		_, _, prof = refEarliest(te, de, vc, p)
	} else if toa > earliest+1e-6 {
		vArr = prof.VelocityAt(prof.TimeAtDistance(de))
		if vArr < s.minSpeed {
			vArr = s.minSpeed
		}
	}
	plan := AccelPlan(toa, vArr, p.MaxSpeed, p.MaxAccel)
	plan.Approach = prof
	plan.ApproachDist = de
	return plan
}

// refRevise is the anchoring reviseOne and dot's reviseVictims share:
// the granted plan's state at te, the latest arrival (ok false rejects the
// revision), the earliest, and reviseOne's planFor, whose every arrival
// enters at its profile's speed.
func refRevise(plan CrossingPlan, params kinematics.Params, te, lip, minSpeed float64) (remaining, speed, latest, earliest, vEarliest float64, planFor func(float64) CrossingPlan, ok bool) {
	remaining, speed, ok = plan.StateAt(te)
	if !ok {
		return
	}
	latest = math.Inf(1)
	if params.StoppingDistance(speed) >= remaining-lip {
		eta, okDip := kinematics.LatestNoDwell(remaining, speed, minSpeed, params)
		if !okDip {
			return remaining, speed, 0, 0, 0, nil, false
		}
		latest = te + eta
	}
	etaDelay, vEarliest, _ := refEarliest(te, remaining, speed, params)
	earliest = te + etaDelay
	if vEarliest < minSpeed {
		vEarliest = minSpeed
	}
	planFor = func(toa float64) CrossingPlan {
		prof, err := kinematics.PlanArrival(te, remaining, speed, toa, params)
		vArr := vEarliest
		if err == nil {
			vArr = prof.VelocityAt(prof.TimeAtDistance(remaining))
		} else {
			_, _, prof = refEarliest(te, remaining, speed, params)
		}
		if vArr < minSpeed {
			vArr = minSpeed
		}
		plan := AccelPlan(toa, vArr, params.MaxSpeed, params.MaxAccel)
		plan.Approach = prof
		plan.ApproachDist = remaining
		return plan
	}
	return remaining, speed, latest, earliest, vEarliest, planFor, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameProfile(a, b kinematics.Profile) bool {
	if !sameBits(a.StartTime, b.StartTime) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if !sameBits(pa.Duration, pb.Duration) || !sameBits(pa.V0, pb.V0) || !sameBits(pa.Accel, pb.Accel) {
			return false
		}
	}
	return true
}

func samePlan(a, b CrossingPlan) bool {
	return sameBits(a.EntrySpeed, b.EntrySpeed) && sameBits(a.TargetSpeed, b.TargetSpeed) &&
		sameProfile(a.Traj, b.Traj) && sameProfile(a.Approach, b.Approach) &&
		sameBits(a.ApproachDist, b.ApproachDist)
}

// anchorFleet is one vehicle class on its spec, with the reference body a
// scheduler builds its tables from.
type anchorFleet struct {
	name       string
	params     kinematics.Params
	spec       safety.Spec
	refL, refW float64
}

func anchorFleets() []anchorFleet {
	truck := kinematics.FullScaleParams()
	truck.MaxSpeed, truck.MaxAccel, truck.MaxDecel = 12, 1.5, 3.5
	truck.Length, truck.Width = 12, 2.5
	return []anchorFleet{
		{"scale", kinematics.ScaleModelParams(), safety.TestbedSpec(), 0.568, 0.296},
		{"fullscale", kinematics.FullScaleParams(), safety.FullScaleSpec(), 4.5, 1.8},
		{"truck", truck, safety.FullScaleSpec(), 12, 2.5},
	}
}

// anchorRequests is the request grid: VC at 0, barely moving, mid-range,
// top speed and above it (and a negative report); DT at 0, inside the
// anchoring run so DE clamps at 0, beyond it, and where a stop from VC
// after TE = TT + WC-RTD ends 5e-7 m either side of each lip; each
// committed and not.
func anchorRequests(f anchorFleet, lips []float64, rng *rand.Rand) []Request {
	p := f.params
	run := p.MaxSpeed * (0.25 + f.spec.WorstRTD) // the longest anchoring run
	approach := 20 * p.MaxSpeed
	var out []Request
	for _, vc := range []float64{0, 1e-4, -0.5, p.MaxSpeed / 2, rng.Float64() * p.MaxSpeed, p.MaxSpeed, 1.3 * p.MaxSpeed} {
		dts := []float64{0, run * rng.Float64() / 4, run / 2, run + 0.1, approach * rng.Float64(), approach}
		v := math.Min(math.Max(vc, 0), p.MaxSpeed)
		for _, lip := range lips {
			stopAt := lip + p.StoppingDistance(v) + v*f.spec.WorstRTD
			dts = append(dts, stopAt-5e-7, stopAt+5e-7)
		}
		for _, dt := range dts {
			for _, committed := range []bool{false, true} {
				out = append(out, Request{
					VehicleID: int64(len(out) + 1), CurrentSpeed: vc, DistToEntry: dt,
					TransmitTime: 100 * rng.Float64(), Committed: committed, Params: p,
				})
			}
		}
	}
	return out
}

// arrivalsAbout returns arrivals before, at and after earliest, and at
// and 1e-6 about a floored earliest.
func arrivalsAbout(earliest, floored float64, rng *rand.Rand) []float64 {
	return []float64{
		earliest - 0.5, earliest - 2e-3, earliest - 5e-4, earliest, earliest + 5e-7, earliest + 2e-6,
		floored - 1e-6, floored, floored + 1e-6,
		earliest + 0.1, earliest + 3*rng.Float64(), earliest + 10, earliest + 40,
	}
}

func TestAnchorMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const minSpeed, window = 0.1, 0.25
	for _, f := range anchorFleets() {
		refDims := f.spec.LipDist(f.refL, f.refW)
		ownDims := f.spec.LipDist(f.params.Length, f.params.Width)
		if !sameBits(refDims, refLip(f.spec, f.refL, f.refW)) || !sameBits(ownDims, refLip(f.spec, f.params.Length, f.params.Width)) {
			t.Fatalf("%s: LipDist %v, %v; reference %v, %v", f.name, refDims, ownDims,
				refLip(f.spec, f.refL, f.refW), refLip(f.spec, f.params.Length, f.params.Width))
		}
		cr := refCrossroads{wcRTD: f.spec.WorstRTD, minSpeed: minSpeed, lipDist: refDims}
		bt := refBatch{window: window, wcRTD: f.spec.WorstRTD, minSpeed: minSpeed, lip: refDims}
		dt := refDot{spec: f.spec, minSpeed: minSpeed, scanStep: 0.4}

		// Params that fail validation are the one way not even the
		// no-dwell dip fits: Latest answers TE, not ok, as every copy did.
		noBrake := Request{CurrentSpeed: f.params.MaxSpeed, DistToEntry: 1, TransmitTime: 1, Params: f.params}
		noBrake.Params.MaxDecel = 0
		nb := AnchorRequest(noBrake, noBrake.TransmitTime+f.spec.WorstRTD, minSpeed)
		if got, ok := nb.Latest(refDims); ok || !sameBits(got, cr.LatestArrival(noBrake)) {
			t.Fatalf("%s: Latest without brakes (%v, %v), want (%v, false)", f.name, got, ok, cr.LatestArrival(noBrake))
		}

		for _, req := range anchorRequests(f, []float64{refDims, ownDims}, rng) {
			where := fmt.Sprintf("%s %+v", f.name, req)

			// Crossroads: TE = TT + WC-RTD.
			a := AnchorRequest(req, req.TransmitTime+f.spec.WorstRTD, minSpeed)
			earliest, vEarliest := a.Earliest()
			wantE, wantV, wantPlan := cr.Plan(req)
			if !sameBits(earliest, wantE) || !sameBits(vEarliest, wantV) {
				t.Fatalf("%s: crossroads Earliest (%v, %v), want (%v, %v)", where, earliest, vEarliest, wantE, wantV)
			}
			if got, _ := a.Latest(refDims); !sameBits(got, cr.LatestArrival(req)) {
				t.Fatalf("%s: crossroads Latest %v, want %v", where, got, cr.LatestArrival(req))
			}
			for _, toa := range arrivalsAbout(earliest, earliest, rng) {
				if got, want := a.Plan(toa, earliest, vEarliest), wantPlan(toa); !samePlan(got, want) {
					t.Fatalf("%s toa %v: crossroads Plan %+v, want %+v", where, toa, got, want)
				}
				if got, want := a.Realizable(toa, refDims), cr.VerifySlot(toa, req); got != want {
					t.Fatalf("%s toa %v: crossroads Realizable %v, want %v", where, toa, got, want)
				}
			}

			// batch: TE = (TT + window) + WC-RTD, and the earliest
			// floored by a lane leader's arrival.
			te := req.TransmitTime + window + f.spec.WorstRTD
			if req.Committed {
				te = req.TransmitTime + f.spec.WorstRTD
			}
			for _, floor := range []float64{0, te + rng.Float64()} {
				ba := AnchorRequest(req, te, minSpeed)
				e, v := ba.Earliest()
				floored := math.Max(e, floor)
				rte, rde, rvc, wantE, wantV, wantPlan := bt.anchor(req, floor)
				if !sameBits(ba.TE, rte) || !sameBits(ba.DE, rde) || !sameBits(ba.VC, rvc) ||
					!sameBits(floored, wantE) || !sameBits(v, wantV) {
					t.Fatalf("%s floor %v: batch anchor (%v %v %v %v %v), want (%v %v %v %v %v)",
						where, floor, ba.TE, ba.DE, ba.VC, floored, v, rte, rde, rvc, wantE, wantV)
				}
				if got, _ := ba.Latest(refDims); !sameBits(got, bt.latestArrival(rte, rde, rvc, req.Params)) {
					t.Fatalf("%s: batch Latest %v, want %v", where, got, bt.latestArrival(rte, rde, rvc, req.Params))
				}
				for _, toa := range arrivalsAbout(e, floored, rng) {
					if got, want := ba.Plan(toa, floored, v), wantPlan(toa); !samePlan(got, want) {
						t.Fatalf("%s floor %v toa %v: batch Plan %+v, want %+v", where, floor, toa, got, want)
					}
					if got, want := ba.Realizable(toa, refDims), bt.realizable(rte, rde, rvc, toa, req.Params); got != want {
						t.Fatalf("%s toa %v: batch Realizable %v, want %v", where, toa, got, want)
					}
				}
			}

			// dot: the vehicle's own lip, earliest floored by the lane
			// leader plus a scan step and by the coordination floor.
			for _, floor := range []float64{0, earliest + rng.Float64()} {
				req := req
				if floor > 0 {
					req.MinArrival = floor + 0.4*rng.Float64()
				}
				rte, rde, rvc, truth, wantE, wantLatest, wantV := dt.anchor(req, floor)
				e, v := a.Earliest()
				floored := e
				if floor+dt.scanStep > floored {
					floored = floor + dt.scanStep
				}
				if req.MinArrival > floored {
					floored = req.MinArrival
				}
				if !sameBits(e, truth) || !sameBits(floored, wantE) || !sameBits(v, wantV) {
					t.Fatalf("%s floor %v: dot earliest (%v %v %v), want (%v %v %v)", where, floor, e, floored, v, truth, wantE, wantV)
				}
				if got, _ := a.Latest(ownDims); !sameBits(got, wantLatest) {
					t.Fatalf("%s: dot Latest %v, want %v", where, got, wantLatest)
				}
				if got, want := a.Plan(truth, truth, v), dt.buildPlan(rte, rde, rvc, truth, truth, wantV, req.Params); !samePlan(got, want) {
					t.Fatalf("%s: dot committed Plan %+v, want %+v", where, got, want)
				}
				for _, toa := range arrivalsAbout(e, floored, rng) {
					if got, want := a.Plan(toa, floored, v), dt.buildPlan(rte, rde, rvc, toa, wantE, wantV, req.Params); !samePlan(got, want) {
						t.Fatalf("%s floor %v toa %v: dot Plan %+v, want %+v", where, floor, toa, got, want)
					}
					if got, want := a.Realizable(toa, ownDims), dt.realizable(rte, rde, rvc, toa, ownDims, req.Params); got != want {
						t.Fatalf("%s toa %v: dot Realizable %v, want %v", where, toa, got, want)
					}
				}
			}

			// Revisions: the granted plan read at a later TE, from before
			// its own TE to past its arrival, with reviseOne's body-plus-
			// buffers lip and dot's per-vehicle one.
			granted := a.Plan(earliest+3*rng.Float64(), earliest, vEarliest)
			for _, dtRev := range []float64{-0.5, 0, 0.3, rng.Float64() * 4, 8} {
				teRev := a.TE + dtRev
				for _, lip := range []float64{f.params.Length + 2*f.spec.SensingBuffer(), ownDims} {
					ra, ok := AnchorPlan(granted, teRev, f.params, minSpeed)
					rem, speed, wantLatest, wantE, wantV, wantPlan, wantOK := refRevise(granted, f.params, teRev, lip, minSpeed)
					latest, latestOK := ra.Latest(lip)
					if !ok {
						if wantOK {
							t.Fatalf("%s rev %v: AnchorPlan refused a readable plan", where, dtRev)
						}
						continue
					}
					if !sameBits(ra.DE, rem) || !sameBits(ra.VC, speed) || latestOK != wantOK {
						t.Fatalf("%s rev %v: AnchorPlan (%v, %v, ok %v), want (%v, %v, ok %v)", where, dtRev, ra.DE, ra.VC, latestOK, rem, speed, wantOK)
					}
					if !wantOK {
						continue
					}
					e, v := ra.Earliest()
					if !sameBits(latest, wantLatest) || !sameBits(e, wantE) || !sameBits(v, wantV) {
						t.Fatalf("%s rev %v: (latest, earliest, vEarliest) (%v, %v, %v), want (%v, %v, %v)", where, dtRev, latest, e, v, wantLatest, wantE, wantV)
					}
					for _, toa := range arrivalsAbout(e, e, rng) {
						if got, want := ra.Plan(toa, math.Inf(-1), v), wantPlan(toa); !samePlan(got, want) {
							t.Fatalf("%s rev %v toa %v: revision Plan %+v, want %+v", where, dtRev, toa, got, want)
						}
					}
				}
			}
		}
	}
}
