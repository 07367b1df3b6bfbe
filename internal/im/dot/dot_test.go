package dot

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
)

// build constructs the policy the way every harness does: through its
// registry entry, with the given -policy-opt knobs.
func build(t *testing.T, params map[string]string) (*Scheduler, error) {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	opts := im.PolicyOptions{Spec: safety.TestbedSpec(), Params: params}
	s, err := e.Factory(x, opts, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	return s.(*Scheduler), nil
}

func req(id int64, a intersection.Approach, tt float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: 3, DistToEntry: 3, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestRegistryEntry(t *testing.T) {
	e, err := im.LookupPolicy(PolicyName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Protocol != im.ProtocolTimed || e.ReplyHold != 0 {
		t.Errorf("entry: protocol %v, hold %v; want timed, 0", e.Protocol, e.ReplyHold)
	}
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.GridN != 8 || c.TimeStep != 0.1 || c.Horizon != 40 || c.MinCrossSpeed != 0.1 {
		t.Errorf("defaults %+v", c)
	}
	s, err = build(t, map[string]string{"dot.grid": "12", "dot.step": "0.05", "dot.horizon": "20"})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.cfg; c.GridN != 12 || c.TimeStep != 0.05 || c.Horizon != 20 {
		t.Errorf("knobs did not reach the config: %+v", c)
	}
	for _, tc := range []struct {
		params  map[string]string
		wantErr string
	}{
		{map[string]string{"dot.grid": "-4"}, "tile grid size -4"},
		{map[string]string{"dot.grid": "33"}, "dot.grid"},
		{map[string]string{"dot.step": "fine"}, "dot.step"},
		{map[string]string{"dot.step": "0"}, "dot.step"},
		{map[string]string{"dot.step": "-0.1"}, "dot.step"},
		{map[string]string{"dot.step": "NaN"}, "dot.step"},
		{map[string]string{"dot.step": "+Inf"}, "dot.step"},
		{map[string]string{"dot.horizon": "-1"}, "dot.horizon"},
		{map[string]string{"dot.horizon": "0"}, "dot.horizon"},
		{map[string]string{"dot.horizon": "NaN"}, "dot.horizon"},
		{map[string]string{"dot.horizon": "Inf"}, "dot.horizon"},
		{map[string]string{"dot.slack": "2"}, "unknown parameter dot.slack"},
	} {
		if _, err := build(t, tc.params); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.params, err, tc.wantErr)
		}
	}
	if _, err := build(t, map[string]string{"dot.grid": "32"}); err != nil {
		t.Errorf("dot.grid=32: %v", err)
	}
}

// TestGrantIsTimedAtTE: the command executes at TE = TT + WC-RTD, and on
// a free intersection it arrives as early as the vehicle can.
func TestGrantIsTimedAtTE(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04))
	if r.Kind != im.RespTimed {
		t.Fatalf("Kind = %v", r.Kind)
	}
	te := 0.04 + safety.TestbedSpec().WorstRTD
	if math.Abs(r.ExecuteAt-te) > 1e-9 {
		t.Errorf("TE = %v, want %v", r.ExecuteAt, te)
	}
	// DE = DT - VC*WC-RTD, covered at top speed from TE.
	if toa := te + (3-3*0.15)/3; math.Abs(r.ArriveAt-toa) > 1e-6 {
		t.Errorf("ToA = %v, want %v", r.ArriveAt, toa)
	}
}

// TestSimultaneousConflictsGetDisjointCrossings: two crossing movements
// requesting at the same instant are both granted, and their space-time
// tile footprints do not overlap.
func TestSimultaneousConflictsGetDisjointCrossings(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04))
	r2, _ := s.HandleRequest(0.05, req(2, intersection.North, 0.04))
	if r1.Kind != im.RespTimed || r2.Kind != im.RespTimed {
		t.Fatalf("responses %v, %v; want two timed grants", r1.Kind, r2.Kind)
	}
	if r2.ArriveAt <= r1.ArriveAt {
		t.Errorf("conflicting crossings not serialized: ToA %v then %v", r1.ArriveAt, r2.ArriveAt)
	}
	g1, g2 := s.grants[1], s.grants[2]
	if g1.steps.Pairs() == 0 || g2.steps.Pairs() == 0 {
		t.Fatal("a grant booked no tiles")
	}
	if g1.steps.Overlaps(&g2.steps) {
		t.Error("granted footprints share a tile in the same time step")
	}
}

// committedAt is a committed (cannot-stop) North-straight report sent at
// now, DT metres from the box at 3 m/s: dot books its truthful arrival
// unconditionally.
func committedAt(id int64, now, dt float64) im.Request {
	r := req(id, intersection.North, now-0.01)
	r.DistToEntry = dt
	r.Committed = true
	return r
}

// footprintPairs is the number of (tile, step) pairs the committed report
// books on an otherwise empty scheduler.
func footprintPairs(t *testing.T, r im.Request) int {
	t.Helper()
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := s.HandleRequest(r.TransmitTime+0.01, r); resp.Kind != im.RespTimed {
		t.Fatalf("committed report not booked: %+v", resp)
	}
	return s.HeldPairs()
}

// TestCommittedBookingRevisesVictim: a committed vehicle booked over a
// standing grant moves the grant to a later slot whose footprint is
// disjoint from the committed one, and queues the revision as a push
// that executes at now + WC-RTD.
func TestCommittedBookingRevisesVictim(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := req(1, intersection.East, 0.04)
	victim.DistToEntry = 6
	r1, _ := s.HandleRequest(0.05, victim)
	if r1.Kind != im.RespTimed {
		t.Fatalf("victim not granted: %+v", r1)
	}
	// The committed report arrives at the victim's arrival time.
	const now = 1.0
	c := committedAt(2, now, 3.15)
	f2 := footprintPairs(t, c)
	r2, _ := s.HandleRequest(now, c)
	if r2.Kind != im.RespTimed || math.Abs(r2.ArriveAt-r1.ArriveAt) > 1e-9 {
		t.Fatalf("committed booking %+v, want a timed grant at the victim's ToA %v", r2, r1.ArriveAt)
	}
	g := s.grants[1]
	if g.toa <= r1.ArriveAt {
		t.Fatalf("victim kept ToA %v, want a later slot than %v", g.toa, r1.ArriveAt)
	}
	pushes := s.TakePushes()
	if len(pushes) != 1 {
		t.Fatalf("pushes = %+v, want one revision", pushes)
	}
	p := pushes[0]
	te := now + safety.TestbedSpec().WorstRTD
	if p.VehicleID != 1 || p.Resp.Kind != im.RespTimed || p.Resp.ArriveAt != g.toa || math.Abs(p.Resp.ExecuteAt-te) > 1e-9 {
		t.Errorf("push %+v, want a timed revision of vehicle 1 to ToA %v at TE %v", p, g.toa, te)
	}
	if again := s.TakePushes(); len(again) != 0 {
		t.Errorf("TakePushes did not drain: %+v", again)
	}
	// The victim's revised booking was the last Reserve, so it would own
	// any shared pair; the committed vehicle's exit freeing its whole
	// footprint shows the two are disjoint.
	held := s.HeldPairs()
	s.HandleExit(2, 2)
	if freed := held - s.HeldPairs(); freed != f2 {
		t.Errorf("committed exit freed %d pairs, want its whole footprint %d", freed, f2)
	}
}

// TestUnmovableVictimKeepsContestedPairs: a victim with no later slot
// keeps its grant and is restored over the committed booking, so the
// shared pairs stay contested. The restore is the last Reserve, so it
// owns them: the victim's exit frees them and leaves held exactly the
// committed vehicle's pairs outside the victim's footprint.
func TestUnmovableVictimKeepsContestedPairs(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := req(1, intersection.East, 0.04)
	victim.DistToEntry = 2
	r1, _ := s.HandleRequest(0.05, victim)
	if r1.Kind != im.RespTimed {
		t.Fatalf("victim not granted: %+v", r1)
	}
	f1 := s.HeldPairs()
	c := committedAt(2, 0.45, 0.6)
	f2 := footprintPairs(t, c)
	if r2, _ := s.HandleRequest(0.45, c); r2.Kind != im.RespTimed {
		t.Fatalf("committed report not booked: %+v", r2)
	}
	if g := s.grants[1]; g.toa != r1.ArriveAt {
		t.Errorf("unmovable victim moved: ToA %v, was %v", g.toa, r1.ArriveAt)
	}
	if p := s.TakePushes(); len(p) != 0 {
		t.Errorf("unmovable victim pushed: %+v", p)
	}
	union := s.HeldPairs()
	if union >= f1+f2 {
		t.Fatalf("held %d pairs with footprints of %d and %d: nothing contested", union, f1, f2)
	}
	s.HandleExit(1, 1)
	if got, want := s.HeldPairs(), union-f1; got != want {
		t.Errorf("after the victim's exit %d pairs held, want the committed vehicle's %d uncontested ones", got, want)
	}
	s.HandleExit(1, 2)
	if got := s.HeldPairs(); got != 0 {
		t.Errorf("after both exits %d pairs held", got)
	}
}

// refTally counts the candidates refFindSlot refuses, by check.
type refTally struct{ exit, tiles int }

// refFindSlot is findSlot as first written: every candidate is swept in
// full, and the exit check and Available run on the whole footprint
// afterwards. findSlot must answer exactly as it does.
func refFindSlot(s *Scheduler, tally *refTally, m *intersection.Movement, self int64, a im.Anchor, earliest, latest, vEarliest float64) (float64, im.CrossingPlan, intersection.Occupancy, im.ExitCrossing, int, bool) {
	lip := s.lipFor(a.Params)
	end := math.Min(latest, earliest+s.cfg.Horizon)
	n := 0
	for cand := earliest; cand <= end+1e-9; cand += s.scanStep {
		toa := math.Min(cand, latest)
		if !a.Realizable(toa, lip) {
			break
		}
		plan := a.Plan(toa, earliest, vEarliest)
		planLen, planWid := s.buffers.InflatedDims(a.Params.Length, a.Params.Width)
		cross := im.Reservation{ToA: toa, Plan: plan}
		steps, samples, _ := im.SweepTiles(s.grid, m, cross, planLen, planWid, s.cfg.TimeStep, nil)
		candExit := im.ExitOf(m, cross, planLen)
		n += samples
		if !s.exitClear(self, candExit) {
			tally.exit++
			continue
		}
		if s.res.Available(steps) {
			return toa, plan, steps, candExit, n, true
		}
		tally.tiles++
	}
	return 0, im.CrossingPlan{}, intersection.Occupancy{}, im.ExitCrossing{}, n + 1, false
}

// TestFindSlotMatchesReference: over seeded scheduler states, findSlot
// returns exactly what refFindSlot does, for probes shaped like requests
// (the requester's own grant still standing) and like revisions (the
// grant released and the scan pushed past its arrival). The states come
// from random requests on every movement, committed ones among them, so
// they hold revised grants, contested pairs and exit-lane queues.
func TestFindSlotMatchesReference(t *testing.T) {
	s, err := build(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ids := s.x.MovementIDs()
	var tally refTally
	found, stops := 0, 0
	check := func(what string, m *intersection.Movement, self int64, a im.Anchor, earliest, latest, vEarliest float64) {
		t.Helper()
		toa, plan, steps, exit, n, ok := s.findSlot(m, self, a, earliest, latest, vEarliest)
		rToa, rPlan, rSteps, rExit, rN, rOK := refFindSlot(s, &tally, m, self, a, earliest, latest, vEarliest)
		if toa != rToa || !reflect.DeepEqual(plan, rPlan) || !reflect.DeepEqual(steps, rSteps) || exit != rExit || n != rN || ok != rOK {
			t.Fatalf("%s for vehicle %d: findSlot (%v, %+v, %v, %d, %v), reference (%v, %+v, %v, %d, %v)",
				what, self, toa, exit, steps.Pairs(), n, ok, rToa, rExit, rSteps.Pairs(), rN, rOK)
		}
		if ok {
			found++
		} else {
			stops++
		}
	}
	now := 0.0
	for i := 0; i < 1000; i++ {
		r := req(int64(1+rng.Intn(20)), 0, now-0.01)
		r.Movement = ids[rng.Intn(len(ids))]
		r.DistToEntry = 0.3 + rng.Float64()*5
		r.CurrentSpeed = 0.5 + rng.Float64()*2.5
		r.Committed = rng.Intn(6) == 0

		m := s.x.Movement(r.Movement)
		a := im.AnchorRequest(r, r.TransmitTime+s.wcRTD, s.cfg.MinCrossSpeed)
		truth, vEarliest := a.Earliest()
		latest, _ := a.Latest(s.lipFor(r.Params))
		check("request", m, r.VehicleID, a, truth+rng.Float64()*2, latest, vEarliest)

		var granted []int64
		for id := range s.grants {
			granted = append(granted, id)
		}
		sort.Slice(granted, func(i, j int) bool { return granted[i] < granted[j] })
		if len(granted) > 0 {
			id := granted[rng.Intn(len(granted))]
			g := s.grants[id]
			if a, ok := im.AnchorPlan(g.res.Plan, now+s.wcRTD, g.params, s.cfg.MinCrossSpeed); ok {
				if latest, ok := a.Latest(s.lipFor(g.params)); ok {
					earliest, vEarliest := a.Earliest()
					s.res.Release(id)
					check("revision", s.x.Movement(g.movement), id, a, math.Max(earliest, g.toa), latest, vEarliest)
					s.res.Reserve(id, g.steps)
				}
			}
		}

		s.HandleRequest(now, r)
		s.TakePushes()
		if rng.Intn(8) == 0 && len(granted) > 0 {
			s.HandleExit(now, granted[rng.Intn(len(granted))])
		}
		now += rng.Float64() * 0.1
	}
	if found == 0 || stops == 0 || tally.exit == 0 || tally.tiles == 0 {
		t.Fatalf("%d slots found, %d scans ran out, %d candidates refused at the exit and %d on tiles: the states do not exercise every branch",
			found, stops, tally.exit, tally.tiles)
	}
}
