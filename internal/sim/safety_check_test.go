package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/des"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// These tests drive world.checkCollisions on hand-placed vehicles: the
// scale-model box (1.2 m, lanes at ±0.3 m), the testbed buffers (0.078 m
// longitudinal, no lateral), and 0.568 x 0.296 m bodies. Straight paths
// put a vehicle's center at x = s-3.6 (east), y = s-3.6 (north),
// x = 3.6-s (west) and y = 3.6-s (south); the box spans s in [3.0, 4.2].
// The buffer contract is judged only while both bodies touch the box
// expanded by the longitudinal buffer plus 0.5 m (|x|,|y| <= 1.178).

// safetyRig is a world with no kernel activity: only what the safety
// check reads is set up.
type safetyRig struct {
	t   *testing.T
	w   *world
	rec *trace.Recorder
}

func newSafetyRig(t *testing.T, numNodes int) *safetyRig {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewFull()
	nodes := make([]worldNode, numNodes)
	for k := range nodes {
		nodes[k].col = metrics.NewCollector()
	}
	w := &world{
		cfg:         Config{Trace: rec},
		sim:         des.New(),
		x:           x,
		nodes:       nodes,
		buffers:     safety.TestbedSpec().ForCrossroads(),
		overlapping: make(map[[2]int64]bool),
		bufOverlap:  make(map[[2]int64]bool),
		groups:      make([][]int, numNodes),
	}
	return &safetyRig{t: t, w: w, rec: rec}
}

// add appends vehicle id to the active list, on movement (a, turn) at
// node, with its center at arc position s.
func (r *safetyRig) add(id int64, node int, a intersection.Approach, turn intersection.Turn, s float64) *vehState {
	r.t.Helper()
	m := r.w.x.Movement(intersection.MovementID{Approach: a, Turn: turn})
	v := &vehState{arr: traffic.Arrival{ID: id}, movement: m, node: node}
	r.place(v, s)
	r.w.active = append(r.w.active, v)
	return v
}

// place moves v to arc position s on its movement, at rest.
func (r *safetyRig) place(v *vehState, s float64) { r.drive(v, s, 0) }

// drive moves v to arc position s on its movement at the given speed.
func (r *safetyRig) drive(v *vehState, s, speed float64) {
	r.t.Helper()
	pl, err := plant.New(v.movement.Path, kinematics.ScaleModelParams(), s, speed, plant.NoNoise(), nil)
	if err != nil {
		r.t.Fatal(err)
	}
	v.plant = pl
}

// counts returns node k's collision and buffer-violation counters.
func (r *safetyRig) counts(k int) (int, int) {
	return r.w.nodes[k].col.Collisions, r.w.nodes[k].col.BufferViolations
}

// violations lists the trace's safety events as (kind, node, vehicle, other).
func (r *safetyRig) violations() []safetyEvent {
	var out []safetyEvent
	for _, ev := range r.rec.Events() {
		if ev.Kind == trace.KindSimCollision || ev.Kind == trace.KindSimBufViol {
			out = append(out, safetyEvent{ev.Kind, ev.Node, ev.Vehicle, ev.Other})
		}
	}
	return out
}

type safetyEvent struct {
	kind           string
	node           int
	vehicle, other int64
}

func (r *safetyRig) wantEvents(want []safetyEvent) {
	r.t.Helper()
	got := r.violations()
	if len(got) != len(want) {
		r.t.Fatalf("safety events:\n got %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			r.t.Fatalf("safety event %d: got %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestSafetyCheckCrossingPairsCountEachRisingEdge places two crossing
// pairs on their crossing points at once: east x north meeting at
// (0.3,-0.3) and west x south at (-0.3,0.3), with no overlap between the
// pairs. Each overlap counts one collision and one buffer violation on
// its rising edge only; separating both pairs near the box and bringing
// them back counts again. Trace events follow the pair loop's order.
func TestSafetyCheckCrossingPairsCountEachRisingEdge(t *testing.T) {
	r := newSafetyRig(t, 1)
	r.add(1, 0, intersection.East, intersection.Straight, 3.9)
	north := r.add(2, 0, intersection.North, intersection.Straight, 3.3)
	r.add(3, 0, intersection.West, intersection.Straight, 3.9)
	south := r.add(4, 0, intersection.South, intersection.Straight, 3.3)
	pairEvents := []safetyEvent{
		{trace.KindSimCollision, 0, 1, 2}, {trace.KindSimBufViol, 0, 1, 2},
		{trace.KindSimCollision, 0, 3, 4}, {trace.KindSimBufViol, 0, 3, 4},
	}

	r.w.checkCollisions()
	r.w.checkCollisions() // still overlapping: no new edge
	if c, b := r.counts(0); c != 2 || b != 2 {
		t.Fatalf("after first contact: %d collisions, %d buffer violations; want 2, 2", c, b)
	}
	r.wantEvents(pairEvents)

	// Back north and south off by 0.6 m: bodies and buffers part (0.09 m
	// between buffers) while both vehicles stay near the box.
	r.place(north, 2.7)
	r.place(south, 2.7)
	r.w.checkCollisions()
	if c, b := r.counts(0); c != 2 || b != 2 {
		t.Fatalf("after separating: %d collisions, %d buffer violations; want 2, 2", c, b)
	}

	r.place(north, 3.3)
	r.place(south, 3.3)
	r.w.checkCollisions()
	if c, b := r.counts(0); c != 4 || b != 4 {
		t.Fatalf("after second contact: %d collisions, %d buffer violations; want 4, 4", c, b)
	}
	r.wantEvents(append(pairEvents, pairEvents...))
}

// TestSafetyCheckEventDetail pins the context a safety event carries for
// offline diagnosis: each vehicle's movement, arc position and speed, the
// event's vehicle first and its other second.
func TestSafetyCheckEventDetail(t *testing.T) {
	r := newSafetyRig(t, 1)
	east := r.add(1, 0, intersection.East, intersection.Straight, 0)
	r.drive(east, 3.9, 1.25)
	r.add(2, 0, intersection.North, intersection.Left, 3.3)
	r.w.checkCollisions()
	r.wantEvents([]safetyEvent{{trace.KindSimCollision, 0, 1, 2}, {trace.KindSimBufViol, 0, 1, 2}})
	const want = "east/l0/straight s=3.900 v=1.250; north/l0/left s=3.300 v=0.000"
	for _, ev := range r.rec.Events() {
		if ev.Detail != want {
			t.Errorf("%s detail = %q, want %q", ev.Kind, ev.Detail, want)
		}
	}
}

// TestSafetyCheckSameApproachNeverBufferViolation overlaps an east
// straight and an east left-turner inside the box: same-lane spacing is
// car following, so each contact is a collision but never a buffer
// violation.
func TestSafetyCheckSameApproachNeverBufferViolation(t *testing.T) {
	r := newSafetyRig(t, 1)
	r.add(1, 0, intersection.East, intersection.Straight, 3.3)
	left := r.add(2, 0, intersection.East, intersection.Left, 3.3)
	r.w.checkCollisions()
	r.place(left, 2.4) // 0.33 m behind, bodies apart
	r.w.checkCollisions()
	r.place(left, 3.3)
	r.w.checkCollisions()
	if c, b := r.counts(0); c != 2 || b != 0 {
		t.Fatalf("%d collisions, %d buffer violations; want 2, 0", c, b)
	}
	r.wantEvents([]safetyEvent{
		{trace.KindSimCollision, 0, 1, 2},
		{trace.KindSimCollision, 0, 1, 2},
	})
}

// TestSafetyCheckBufferContractOnlyNearBox overlaps an east straight and
// a north right-turner on their shared exit lane (y = -0.3). Just past
// the box the overlap is also a buffer violation; at the far end of the
// exit lane it is a collision only.
func TestSafetyCheckBufferContractOnlyNearBox(t *testing.T) {
	// The north right turn leaves the box at s = 3.471, at x = 0.6.
	rightS := func(x float64) float64 { return 3.471 + x - 0.6 }

	near := newSafetyRig(t, 1)
	near.add(1, 0, intersection.East, intersection.Straight, 0.9+3.6)
	near.add(2, 0, intersection.North, intersection.Right, rightS(0.9))
	near.w.checkCollisions()
	if c, b := near.counts(0); c != 1 || b != 1 {
		t.Fatalf("near the box: %d collisions, %d buffer violations; want 1, 1", c, b)
	}

	away := newSafetyRig(t, 1)
	away.add(1, 0, intersection.East, intersection.Straight, 1.8+3.6)
	away.add(2, 0, intersection.North, intersection.Right, rightS(1.8))
	away.w.checkCollisions()
	if c, b := away.counts(0); c != 1 || b != 0 {
		t.Fatalf("away from the box: %d collisions, %d buffer violations; want 1, 0", c, b)
	}
	away.wantEvents([]safetyEvent{{trace.KindSimCollision, 0, 1, 2}})
}

// TestSafetyCheckBufferEdgeHeldAwayFromBox pins that the buffer contract's
// overlap state is only updated while it is judged: a crossing pair that
// violates near the box, parts while one vehicle is away from it, and
// comes back overlapping has not made a new rising edge.
func TestSafetyCheckBufferEdgeHeldAwayFromBox(t *testing.T) {
	r := newSafetyRig(t, 1)
	r.add(1, 0, intersection.East, intersection.Straight, 3.9)
	north := r.add(2, 0, intersection.North, intersection.Straight, 3.3)
	r.w.checkCollisions()
	r.place(north, 1.0) // y = -2.6: far from the box, bodies apart
	r.w.checkCollisions()
	r.place(north, 3.3)
	r.w.checkCollisions()
	if c, b := r.counts(0); c != 2 || b != 1 {
		t.Fatalf("%d collisions, %d buffer violations; want 2, 1", c, b)
	}
}

// TestSafetyCheckSkipsOtherNodesAndTransit stacks vehicles on the same
// spot of the same node-local frame: pairs on different nodes, and pairs
// with a vehicle in transit between nodes, are never compared, and a
// violation is charged to the node where it happened.
func TestSafetyCheckSkipsOtherNodesAndTransit(t *testing.T) {
	r := newSafetyRig(t, 2)
	r.add(1, 0, intersection.East, intersection.Straight, 3.9)
	r.add(2, 1, intersection.North, intersection.Straight, 3.3)
	gone := r.add(3, 0, intersection.North, intersection.Straight, 3.3)
	gone.transit = true
	r.add(4, 1, intersection.East, intersection.Straight, 3.9)
	r.w.checkCollisions()
	if c, b := r.counts(0); c != 0 || b != 0 {
		t.Errorf("node 0: %d collisions, %d buffer violations; want 0, 0", c, b)
	}
	if c, b := r.counts(1); c != 1 || b != 1 {
		t.Errorf("node 1: %d collisions, %d buffer violations; want 1, 1", c, b)
	}
	r.wantEvents([]safetyEvent{
		{trace.KindSimCollision, 1, 2, 4}, {trace.KindSimBufViol, 1, 2, 4},
	})
}

// TestSafetyCheckForgetsPartedPairs pins that the overlap sets hold only
// the pairs overlapping now: a pair that parts where it is judged leaves
// both sets, so neither grows with every pair a run has ever seen.
func TestSafetyCheckForgetsPartedPairs(t *testing.T) {
	r := newSafetyRig(t, 1)
	r.add(1, 0, intersection.East, intersection.Straight, 3.9)
	north := r.add(2, 0, intersection.North, intersection.Straight, 3.3)
	r.add(3, 0, intersection.West, intersection.Straight, 1.0) // far, parted
	r.w.checkCollisions()
	if len(r.w.overlapping) != 1 || len(r.w.bufOverlap) != 1 {
		t.Fatalf("in contact: %d body and %d buffer pairs held; want 1, 1",
			len(r.w.overlapping), len(r.w.bufOverlap))
	}
	r.place(north, 2.7)
	r.w.checkCollisions()
	if len(r.w.overlapping) != 0 || len(r.w.bufOverlap) != 0 {
		t.Fatalf("parted: %d body and %d buffer pairs held; want 0, 0",
			len(r.w.overlapping), len(r.w.bufOverlap))
	}
}

// denseWorld runs a saturated single-intersection scale-model run to its
// first tick with 12 vehicles on the roads, the most the spawn gating
// admits (three queued per approach lane), and returns the world there.
func denseWorld(b *testing.B) *world {
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 1.2, NumVehicles: 80, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := NewConfig(WithPolicy("crossroads"), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	return worldAt(b, cfg, arr, 12)
}

// denseGridWorld runs crbench grid's shape, a coordinated 3x3 grid of
// routed scale-model journeys 0.8 m apart, 40 vehicles at 0.5 veh/s per
// lane, to its first tick with 24 vehicles at nodes (its peak is 28) and
// returns the world there.
func denseGridWorld(b *testing.B) *world {
	cfg, arr := goldenRun(b, goldenCase{Policy: "crossroads", Seed: 1, Rate: 0.5, Vehicles: 40, Grid: 3, SegLen: 0.8, Coord: true})
	return worldAt(b, cfg, arr, 24)
}

// worldAt runs cfg over arr, as world.run does, to its first tick with
// dense vehicles at nodes, and returns the world there.
func worldAt(b *testing.B, cfg Config, arr []traffic.Arrival, dense int) *world {
	w, err := newWorld(cfg, arr)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range arr {
		a := a
		w.sim.At(a.Time, func() { w.spawn(a) })
	}
	dt := w.cfg.PhysicsDt
	w.sim.Ticker(arr[0].Time, dt, func() bool { w.step(dt); return true })
	for {
		atNodes := 0
		for _, v := range w.active {
			if !v.transit {
				atNodes++
			}
		}
		if atNodes >= dense {
			return w
		}
		if w.sim.Now() > arr[len(arr)-1].Time {
			b.Fatalf("never reached %d vehicles at nodes", dense)
		}
		w.sim.RunFor(dt)
	}
}

// BenchmarkSafetyCheck times one safety check at denseWorld's moment: 66
// same-node pairs per check.
func BenchmarkSafetyCheck(b *testing.B) {
	w := denseWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.checkCollisions()
	}
}

// BenchmarkPhysicsTick times one physics tick, world.step, at denseWorld's
// moment: each vehicle's control step (car following included) and plant
// step, the lifecycle pass, and every second tick the safety check, as a
// run's ticks do. Each iteration first puts every plant back where the
// moment left it, so every tick steps the same 12 vehicles from the same
// state; the clock does not advance, so the periodic re-plans a vehicle
// makes every 0.4 s fall on the first iteration only.
func BenchmarkPhysicsTick(b *testing.B) { benchmarkTick(b, denseWorld(b)) }

// BenchmarkPhysicsTickGrid times one physics tick as BenchmarkPhysicsTick
// does, at denseGridWorld's moment: 24 vehicles at nine nodes, whose car
// following and safety check compare only vehicles at the same node.
func BenchmarkPhysicsTickGrid(b *testing.B) { benchmarkTick(b, denseGridWorld(b)) }

func benchmarkTick(b *testing.B, w *world) {
	dt := w.cfg.PhysicsDt
	vs := append([]*vehState(nil), w.active...)
	saved := make([]plant.Plant, len(vs))
	for k, v := range vs {
		saved[k] = *v.plant
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, v := range vs {
			*v.plant = saved[k]
		}
		w.step(dt)
	}
}
