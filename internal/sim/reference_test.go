package sim

import (
	"math"
	"testing"

	"crossroads/internal/geom"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// The tests below pin the world's corridor index and per-node safety check
// to the whole-fleet scans they replaced, kept here as reference copies:
// over seeded dense runs, at every tick, the leader each vehicle sees and,
// at every safety check, the per-node counters and safety events.

// refLeader is leaderFor's oracle as it was before the corridor index: a
// scan of every active vehicle for the nearest one ahead in self's
// corridor at self's node.
func refLeader(w *world, self *vehState) (vehicle.LeaderInfo, bool) {
	sSelf := self.plant.S()
	best := vehicle.LeaderInfo{Gap: math.Inf(1)}
	found := false
	for _, o := range w.active {
		if o == self || o.gone || o.transit || o.node != self.node {
			continue
		}
		gap, merge, ok := corridorGap(self, o, sSelf)
		if ok && gap < best.Gap {
			best = vehicle.LeaderInfo{Gap: gap, Speed: o.plant.V(), Decel: o.plant.Params.MaxDecel, Merge: merge}
			found = true
		}
	}
	return best, found
}

// refSafety is the state refCheckCollisions keeps apart from the world's:
// its overlap sets, per-node counters and safety events.
type refSafety struct {
	overlapping, bufOverlap map[[2]int64]bool
	collisions, bufViol     []int
	events                  []trace.Event
}

func newRefSafety(numNodes int) *refSafety {
	return &refSafety{
		overlapping: make(map[[2]int64]bool),
		bufOverlap:  make(map[[2]int64]bool),
		collisions:  make([]int, numNodes),
		bufViol:     make([]int, numNodes),
	}
}

// refBody is one vehicle's geometry in refCheckCollisions.
type refBody struct {
	v         *vehState
	fp, buf   geom.Rect
	fpR, bufR float64
	near      bool
}

// refCheckCollisions is checkCollisions as it was before the per-node
// grouping: every footprint, buffer and near-box flag computed up front,
// then every pair of non-transit vehicles in active order, pairs at
// different nodes skipped. It returns the same-node pairs it judged.
func refCheckCollisions(w *world, st *refSafety) int {
	box := w.x.Box().Expand(w.buffers.Long + 0.5)
	var bodies []refBody
	for _, v := range w.active {
		if v.transit {
			continue
		}
		fp := v.plant.Footprint()
		buf := fp.Inflate(w.buffers.Long, w.buffers.Lat)
		bodies = append(bodies, refBody{v: v, fp: fp, buf: buf, fpR: fp.Radius(), bufR: buf.Radius(),
			near: box.Overlaps(fp.AABB())})
	}
	pairs := 0
	for i := range bodies {
		bi := &bodies[i]
		vi := bi.v
		for j := i + 1; j < len(bodies); j++ {
			bj := &bodies[j]
			vj := bj.v
			if vj.node != vi.node {
				continue
			}
			pairs++
			dx := math.Abs(bi.fp.Center.X - bj.fp.Center.X)
			dy := math.Abs(bi.fp.Center.Y - bj.fp.Center.Y)
			key := [2]int64{vi.arr.ID, vj.arr.ID}
			r := bi.fpR + bj.fpR
			hit := !(dx > r || dy > r) && bi.fp.Intersects(bj.fp)
			if risingEdge(st.overlapping, key, hit) {
				st.collisions[vi.node]++
				st.events = append(st.events, trace.Event{Kind: trace.KindSimCollision, T: w.sim.Now(),
					Node: vi.node, Vehicle: vi.arr.ID, Other: vj.arr.ID, Detail: pairDetail(vi, vj)})
			}
			if vi.movement.ID.Approach == vj.movement.ID.Approach || !bi.near || !bj.near {
				continue
			}
			r = bi.bufR + bj.bufR
			hit = !(dx > r || dy > r) && bi.buf.Intersects(bj.buf)
			if risingEdge(st.bufOverlap, key, hit) {
				st.bufViol[vi.node]++
				st.events = append(st.events, trace.Event{Kind: trace.KindSimBufViol, T: w.sim.Now(),
					Node: vi.node, Vehicle: vi.arr.ID, Other: vj.arr.ID, Detail: pairDetail(vi, vj)})
			}
		}
	}
	return pairs
}

// refTally is what one reference run exercised.
type refTally struct {
	ticks, leaders, pairs, violations int
}

// runAgainstReference drives a run as world.run does, traced, and at
// every tick compares each vehicle's leader with refLeader before the
// tick's step; after every safety check it compares each node's counters
// with refCheckCollisions', and the trace's safety events with its events.
func runAgainstReference(t *testing.T, cfg Config, arr []traffic.Arrival) refTally {
	t.Helper()
	rec := trace.NewFull()
	cfg.Trace = rec
	w, err := newWorld(cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		a := a
		w.sim.At(a.Time, func() { w.spawn(a) })
	}
	ref := newRefSafety(len(w.nodes))
	var tally refTally
	dt := w.cfg.PhysicsDt
	w.sim.Ticker(arr[0].Time, dt, func() bool {
		tally.ticks++
		w.indexCorridors()
		for _, v := range w.active {
			if v.gone || v.transit {
				continue
			}
			got, gotOK := w.leaderFor(v)()
			want, wantOK := refLeader(w, v)
			if gotOK != wantOK || got != want {
				t.Fatalf("t=%.2f vehicle %d: leader %+v (%v), reference %+v (%v)",
					w.sim.Now(), v.arr.ID, got, gotOK, want, wantOK)
			}
			if gotOK {
				tally.leaders++
			}
		}
		w.step(dt)
		if w.tick%w.cfg.CollisionEvery == 0 {
			tally.pairs += refCheckCollisions(w, ref)
			for k, n := range w.nodes {
				if n.col.Collisions != ref.collisions[k] || n.col.BufferViolations != ref.bufViol[k] {
					t.Fatalf("t=%.2f node %d: %d collisions, %d buffer violations; reference %d, %d",
						w.sim.Now(), k, n.col.Collisions, n.col.BufferViolations, ref.collisions[k], ref.bufViol[k])
				}
			}
			if got := rec.KindCount(trace.KindSimCollision) + rec.KindCount(trace.KindSimBufViol); got != len(ref.events) {
				t.Fatalf("t=%.2f: %d safety events, reference %d", w.sim.Now(), got, len(ref.events))
			} else if got > tally.violations {
				tally.violations = got
				var safety []trace.Event
				for _, ev := range rec.Events() {
					if ev.Kind == trace.KindSimCollision || ev.Kind == trace.KindSimBufViol {
						safety = append(safety, ev)
					}
				}
				for i, ev := range safety {
					if ev != ref.events[i] {
						t.Fatalf("safety event %d: %+v, reference %+v", i, ev, ref.events[i])
					}
				}
			}
		}
		if w.spawned < len(arr) || len(w.active) > 0 {
			return true
		}
		for _, n := range w.nodes {
			n.server.StopTimers()
		}
		return false
	})
	w.sim.RunUntil(arr[len(arr)-1].Time + 600)
	if w.spawned < len(arr) || len(w.active) > 0 {
		t.Fatalf("run cut at the horizon: %d of %d spawned, %d active", w.spawned, len(arr), len(w.active))
	}
	return tally
}

// TestCorridorIndexAndSafetyCheckMatchReference runs the reference
// comparison over dense runs: the VT-IM ablation without its RTD buffer
// under worst-case delays (a saturated single intersection whose buffers
// overlap), crbench grid's shape (a coordinated 3x3 grid of routed
// journeys), and a full-scale two-lane fleet with trucks, which records
// safety events too.
func TestCorridorIndexAndSafetyCheckMatchReference(t *testing.T) {
	total := refTally{}
	add := func(name string, tl refTally) {
		t.Logf("%s: %d ticks, %d leaders, %d same-node pairs, %d safety events",
			name, tl.ticks, tl.leaders, tl.pairs, tl.violations)
		if tl.leaders == 0 || tl.pairs == 0 {
			t.Errorf("%s: no leader or no same-node pair to compare", name)
		}
		total.violations += tl.violations
	}
	cfg := adversarialRTD(Config{Policy: "vt-im", Seed: 2, OmitRTDBuffer: true})
	add("vtim-unbuffered", runAgainstReference(t, cfg, ablationWorkload(t, 2)))
	for _, gc := range []goldenCase{
		{Name: "grid", Policy: "crossroads", Seed: 5, Rate: 0.5, Vehicles: 40, Grid: 3, SegLen: 0.8, Coord: true},
		{Name: "two-lane", Policy: "crossroads", Seed: 3, Noisy: true, Rate: 0.6, Vehicles: 48, FullScale: true, Lanes: 2, Trucks: true},
	} {
		cfg, arr := goldenRun(t, gc)
		add(gc.Name, runAgainstReference(t, cfg, arr))
	}
	if total.violations == 0 {
		t.Error("no run recorded a collision or a buffer violation: the event comparison compared nothing")
	}
}
