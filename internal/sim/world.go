// Package sim assembles the full closed-loop simulation: the discrete-event
// kernel, the V2I network, a topology of intersections each managed by its
// own IM shard, and a fleet of vehicle agents with noisy plants and
// drifting clocks. It is the Go equivalent of the paper's Matlab simulators
// plus the physical-testbed effects (RTD, sync error, control error) those
// simulators abstracted away, generalized from the paper's single
// intersection to corridors and grids: vehicles follow routes through a
// sequence of intersections, re-entering the approach state machine at each
// one while their synchronized clock and plant state carry across segments.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/des"
	"crossroads/internal/fault"
	"crossroads/internal/geom"
	"crossroads/internal/im"
	_ "crossroads/internal/im/builtin" // register the built-in policies
	"crossroads/internal/im/vtim"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/timesync"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// Config describes one simulation run. Build it with NewConfig and
// Options; Run validates every config it is given.
type Config struct {
	// Intersection geometry; zero value uses the scale model. Every
	// topology node reuses this geometry.
	Intersection intersection.Config
	// Topology is the road network; nil means topology.Single() — the
	// classic one-intersection experiments, bit-identical to the
	// pre-topology engine.
	Topology *topology.Topology
	// Policy names the registered IM policy under test (im.Policies());
	// there is no default.
	Policy string
	// Spec carries the uncertainty bounds (buffers, WC-RTD).
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost im.CostModel
	// Delay is the network latency model; nil uses the testbed model.
	Delay network.DelayModel
	// LossProb injects message loss.
	LossProb float64
	// Faults, if non-nil, scripts fault windows onto the run (burst loss,
	// partitions, delay spikes, duplication, IM stalls) and arms both
	// protocol sides' degradation paths: vehicle grant-expiry failsafe and
	// IM lease expiry. The injector draws from its own Seed+6 stream, so a
	// faulted run samples the same delays and loss coins as its clean twin;
	// nil leaves the run byte-identical to a pre-fault build.
	Faults *fault.Schedule
	// Noise configures the plants; zero value is noiseless. Use
	// plant.TestbedNoise() for the calibrated testbed disturbance.
	Noise plant.NoiseConfig
	// PhysicsDt is the plant integration step (s); 0 means 10 ms.
	PhysicsDt float64
	// MaxSimTime caps the run; 0 derives it from the workload.
	MaxSimTime float64
	// Seed drives every stochastic component.
	Seed int64
	// ClockMaxOffset / ClockMaxDriftPPM bound the vehicles' raw clock
	// errors before NTP sync; zero values use 0.2 s and 20 ppm.
	ClockMaxOffset   float64
	ClockMaxDriftPPM float64
	// OmitRTDBuffer runs VT-IM without its RTD buffer — the UNSAFE
	// ablation demonstrating why the buffer exists. Valid only with
	// vt-im (the other policies have no such ablation).
	OmitRTDBuffer bool
	// PolicyParams carries generic per-policy tuning as namespaced
	// "<policy>.<knob>" keys (e.g. "dot.grid", "signalized.green"). Keys
	// belonging to policies other than the one under test are ignored, so
	// a sweep can share one map across its whole policy set; an unknown
	// knob under the running policy's namespace fails scheduler
	// construction with an error naming the policy and its known knobs.
	PolicyParams map[string]string
	// CollisionEvery checks footprint overlaps every N physics ticks;
	// 0 means every 2 ticks.
	CollisionEvery int
	// Observer, if set, receives a snapshot of every active vehicle each
	// ObserverEvery physics ticks (default every 10). Visualizers and
	// examples use it; the snapshot slice is reused between calls.
	Observer      func(now float64, vehicles []VehicleView)
	ObserverEvery int
	// Trace, if set, receives the run's structured event stream: message
	// lifecycle, IM decisions, book mutations, vehicle state transitions,
	// spawns/exits, and safety violations. The recorder's clock is bound
	// to the run's simulated clock. nil disables tracing (zero overhead).
	Trace *trace.Recorder
	// TraceDES additionally traces every executed kernel event (the
	// physics-tick firehose).
	TraceDES bool
	// Coord arms the IM↔IM coordination plane on multi-node topologies:
	// every shard server broadcasts periodic link-state digests to its
	// neighbors and biases admission by theirs (downstream backpressure +
	// green-wave offsets, see internal/im/coord.go). Off — the default —
	// keeps runs byte-identical to pre-coordination builds; on a
	// single-node topology it is a harmless no-op (an IM has no peers).
	Coord bool
	// CoordPeriod overrides the digest broadcast period (s); 0 uses the
	// default. Setting it without Coord is rejected.
	CoordPeriod float64
}

// Validate rejects configurations that would silently run a different
// experiment than the caller intended. Zero values that mean "use the
// default" stay valid; a missing or unregistered policy name,
// contradictions and out-of-range knobs do not.
func (cfg Config) Validate() error {
	if _, err := im.LookupPolicy(cfg.Policy); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.OmitRTDBuffer && cfg.Policy != vtim.PolicyName {
		return fmt.Errorf("sim: OmitRTDBuffer is a VT-IM ablation; policy %v has no RTD buffer to omit", cfg.Policy)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return fmt.Errorf("sim: LossProb %v outside [0, 1)", cfg.LossProb)
	}
	if cfg.PhysicsDt < 0 {
		return fmt.Errorf("sim: negative PhysicsDt %v", cfg.PhysicsDt)
	}
	if cfg.MaxSimTime < 0 {
		return fmt.Errorf("sim: negative MaxSimTime %v", cfg.MaxSimTime)
	}
	if cfg.ClockMaxOffset < 0 {
		return fmt.Errorf("sim: negative ClockMaxOffset %v", cfg.ClockMaxOffset)
	}
	if cfg.ClockMaxDriftPPM < 0 {
		return fmt.Errorf("sim: negative ClockMaxDriftPPM %v", cfg.ClockMaxDriftPPM)
	}
	if cfg.CollisionEvery < 0 {
		return fmt.Errorf("sim: negative CollisionEvery %d", cfg.CollisionEvery)
	}
	if err := im.ValidateParams(cfg.PolicyParams); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.TraceDES && cfg.Trace == nil {
		return fmt.Errorf("sim: TraceDES requires a Trace recorder")
	}
	if cfg.CoordPeriod < 0 {
		return fmt.Errorf("sim: negative CoordPeriod %v", cfg.CoordPeriod)
	}
	if cfg.CoordPeriod != 0 && !cfg.Coord {
		return fmt.Errorf("sim: CoordPeriod=%v set without Coord", cfg.CoordPeriod)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		numNodes := 1
		if cfg.Topology != nil {
			numNodes = cfg.Topology.NumNodes()
		}
		for i, fw := range cfg.Faults.Windows {
			if fw.Kind == fault.Stall && fw.Node >= numNodes {
				return fmt.Errorf("sim: fault window %d stalls node %d; topology has %d nodes",
					i, fw.Node, numNodes)
			}
		}
	}
	return nil
}

// VehicleView is an observer snapshot of one active vehicle.
type VehicleView struct {
	ID       int64
	Pose     geom.Pose
	Speed    float64
	State    string
	Movement intersection.MovementID
	// Node is the topology node whose local frame Pose is expressed in.
	Node int
}

// Result is the outcome of one run.
type Result struct {
	Policy  string
	Summary metrics.Summary
	Network network.Stats
	// Vehicles holds the end-to-end journey records in arrival order.
	Vehicles []metrics.VehicleRecord
	// PerNode holds one summary per topology node: the crossings of that
	// intersection alone, with wait measured against the vehicle's
	// unimpeded arrival at the node's transmission line. On single-
	// intersection runs PerNode[0] equals Summary's vehicle statistics.
	PerNode []metrics.Summary
	// Incomplete lists vehicles that never finished (0 for healthy runs).
	Incomplete int
	// FailsafeStopped counts the subset of Incomplete that ended the run
	// standing still on the approach, short of the intersection box — the
	// intended graceful-degradation outcome when a fault outlives the run.
	FailsafeStopped int
	// Stranded counts incomplete vehicles in any other state (moving, or
	// worse, inside the box). A resilient policy keeps this at zero.
	Stranded int
}

// vehState tracks one active vehicle along its route.
type vehState struct {
	arr   traffic.Arrival
	agent *vehicle.Agent
	plant *plant.Plant

	// legs/movs/turns describe the route; leg indexes the current one.
	legs  []topology.Leg
	movs  []*intersection.Movement
	turns []intersection.Turn
	leg   int
	node  int

	movement *intersection.Movement
	// jrec is the end-to-end journey record; nrec the current node's
	// crossing record. On single-node runs they are the same record.
	jrec *metrics.VehicleRecord
	nrec *metrics.VehicleRecord
	// legRetries0 snapshots the agent's cumulative retries at leg entry so
	// nrec can report the per-node delta.
	legRetries0 int

	entered bool
	done    bool
	// transit marks a vehicle cruising the road segment between two
	// nodes: it has despawned from the previous node's local frame and
	// re-enters the next one's at its scheduled arrival.
	transit bool
	// legArrive and legSpeed are the unimpeded arrival time and speed at
	// the next node's transmission line, fixed when transit begins.
	legArrive float64
	legSpeed  float64
	gone      bool

	// fpR and bufR are the bounding radii (geom.Rect.Radius) of the
	// footprint and of the buffered footprint, set by the first safety
	// check that compares the vehicle: they depend only on the vehicle's
	// dimensions and the buffers.
	fpR, bufR float64

	// entrySlot and exitSlot are the corridor index's slots for the entry
	// lane and the exit lane at the vehicle's node, set by every
	// indexCorridors.
	entrySlot, exitSlot int
	// spawnRetry re-attempts a deferred spawn and enterNext enters the next
	// leg, after transit or a deferral; each is built once and rescheduled
	// as often as needed.
	spawnRetry, enterNext func()
}

func (v *vehState) lastLeg() bool { return v.leg == len(v.legs)-1 }

// Run executes one full simulation of the workload under the configured
// policy and returns the aggregated result. The arrivals must be in time
// order (non-decreasing Time) and carry distinct vehicle IDs: the run
// starts its clock at the first arrival, sizes its horizon from the last,
// and keeps one record per ID. Run returns an error naming the first
// arrival that breaks either rule.
func Run(cfg Config, arrivals []traffic.Arrival) (Result, error) {
	w, err := newWorld(cfg, arrivals)
	if err != nil {
		return Result{}, err
	}
	return w.run()
}

// worldNode is one intersection's IM shard and its node-local accounting.
type worldNode struct {
	server *im.Server
	col    *metrics.Collector
}

type world struct {
	cfg      Config
	arrivals []traffic.Arrival

	sim   *des.Simulator
	net   *network.Network
	x     *intersection.Intersection
	topo  *topology.Topology
	nodes []worldNode
	// col is the journey-level collector. On single-node runs it is the
	// same object as nodes[0].col, which keeps the classic results
	// bit-identical (every counter lands exactly where it used to).
	col *metrics.Collector

	rngClock *rand.Rand
	rngPlant *rand.Rand

	agentCfg vehicle.Config
	buffers  safety.Buffers

	active  []*vehState
	spawned int

	// corridors is the corridor index car following reads: per slot, the
	// vehicles at one node entering on one approach lane, or leaving on
	// one exit lane (corridorSlot), in active order. step rebuilds it
	// before the control loop when corridorsStale says a vehicle arrived
	// at a node or left one since the last build; filled lists the slots
	// that build used, so the next one clears only those.
	corridors      [][]*vehState
	filled         []int
	lanes          int
	corridorsStale bool

	// overlapping and bufOverlap hold the same-node pairs whose bodies,
	// and near-box buffers, overlap. bodies and groups are checkCollisions'
	// per-check scratch, reused across checks: groups holds, per node, the
	// indexes into bodies of that node's vehicles, in active order.
	overlapping map[[2]int64]bool
	bufOverlap  map[[2]int64]bool
	bodies      []safeBody
	groups      [][]int
	tick        int
	// views is the reusable observer snapshot buffer.
	views []VehicleView
}

func newWorld(cfg Config, arrivals []traffic.Arrival) (*world, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if cfg.Intersection == (intersection.Config{}) {
		cfg.Intersection = intersection.ScaleModelConfig()
	}
	if cfg.Topology == nil {
		cfg.Topology = topology.Single()
	}
	if cfg.Spec == (safety.Spec{}) {
		cfg.Spec = safety.TestbedSpec()
	}
	if cfg.Cost == (im.CostModel{}) {
		cfg.Cost = im.TestbedCostModel()
	}
	if cfg.Delay == nil {
		cfg.Delay = network.TestbedDelay()
	}
	if cfg.PhysicsDt <= 0 {
		cfg.PhysicsDt = 0.01
	}
	if cfg.ClockMaxOffset <= 0 {
		cfg.ClockMaxOffset = 0.2
	}
	if cfg.ClockMaxDriftPPM <= 0 {
		cfg.ClockMaxDriftPPM = 20
	}
	if cfg.CollisionEvery <= 0 {
		cfg.CollisionEvery = 2
	}
	x, err := intersection.New(cfg.Intersection)
	if err != nil {
		return nil, err
	}
	sim := des.New()
	// The network draws delays from Seed+1 and loss coins from Seed+5:
	// independent streams, so a lossy or faulted run samples the exact
	// same per-message latencies as its clean twin.
	rngNet := rand.New(rand.NewSource(cfg.Seed + 1))
	rngLoss := rand.New(rand.NewSource(cfg.Seed + 5))
	net := network.New(sim, rngNet, rngLoss, cfg.Delay, cfg.LossProb)
	col := metrics.NewCollector()

	// Reference footprint: the largest vehicle in the workload.
	refLen, refWid := 0.0, 0.0
	numNodes := cfg.Topology.NumNodes()
	ids := make(map[int64]bool, len(arrivals))
	for i, a := range arrivals {
		if i > 0 && a.Time < arrivals[i-1].Time {
			return nil, fmt.Errorf("sim: arrival %d at t=%v is listed after arrival %d at t=%v; arrivals must be in time order",
				a.ID, a.Time, arrivals[i-1].ID, arrivals[i-1].Time)
		}
		if ids[a.ID] {
			return nil, fmt.Errorf("sim: arrival %d: vehicle ID listed twice", a.ID)
		}
		ids[a.ID] = true
		if err := a.Params.Validate(); err != nil {
			return nil, fmt.Errorf("sim: arrival %d: %w", a.ID, err)
		}
		if a.Node < 0 || a.Node >= numNodes {
			return nil, fmt.Errorf("sim: arrival %d enters at node %d; topology %s has %d nodes",
				a.ID, a.Node, cfg.Topology, numNodes)
		}
		refLen = math.Max(refLen, a.Params.Length)
		refWid = math.Max(refWid, a.Params.Width)
	}

	opts := im.PolicyOptions{
		Spec:          cfg.Spec,
		Cost:          cfg.Cost,
		RefLength:     refLen,
		RefWidth:      refWid,
		OmitRTDBuffer: cfg.OmitRTDBuffer,
		Params:        cfg.PolicyParams,
	}
	// One IM shard per topology node, each with its own scheduler state and
	// RNG stream, all sharing the kernel and the V2I network.
	nodes := make([]worldNode, numNodes)
	for k := range nodes {
		nodeCol := col
		if numNodes > 1 {
			nodeCol = metrics.NewCollector()
		}
		server, err := im.NewShard(cfg.Policy, x, opts, cfg.Seed, k, sim, net, nodeCol)
		if err != nil {
			return nil, err
		}
		nodes[k] = worldNode{server: server, col: nodeCol}
	}

	if cfg.Coord && numNodes > 1 {
		// Segment transit is estimated at the fleet's cruise (top) speed.
		cruise := 0.0
		for _, a := range arrivals {
			cruise = math.Max(cruise, a.Params.MaxSpeed)
		}
		ccfg := im.NewCoordConfig(cfg.CoordPeriod, x, cfg.Topology, cruise)
		for k := range nodes {
			peers, downstream := im.CoordPeers(cfg.Topology, k)
			nodes[k].server.EnableCoordination(ccfg, peers, downstream)
		}
	}

	refParams := arrivals[0].Params
	for _, a := range arrivals {
		if a.Params.Length > refParams.Length {
			refParams = a.Params
		}
	}
	entry, _ := im.LookupPolicy(cfg.Policy) // Validate checked the name
	agentCfg := vehicle.DeriveConfig(entry.Protocol, entry.ReplyHold, cfg.Spec, refParams)
	agentCfg.Trace = cfg.Trace
	if cfg.Faults != nil {
		// The grant-expiry failsafe is armed only under fault injection: a
		// positive TTL changes vehicle control flow, and clean runs must
		// stay byte-identical to a fault-free build.
		agentCfg.GrantTTL = cfg.Faults.ResolvedGrantTTL()
	}

	// The safety contract checked at runtime is on sensing-buffered
	// footprints for every policy: the RTD buffer is a *planning* margin
	// that absorbs execution-time deviation, so actual footprints inflated
	// by sensing+sync error must stay disjoint — that is what the paper's
	// buffers exist to guarantee.
	buffers := cfg.Spec.ForCrossroads()

	if cfg.Trace != nil {
		// Layers without a clock (the reservation book) stamp events via
		// the recorder's injected clock.
		cfg.Trace.Now = sim.Now
		net.SetTrace(cfg.Trace)
		for k := range nodes {
			nodes[k].server.SetTrace(cfg.Trace)
		}
		if cfg.TraceDES {
			sim.SetTrace(cfg.Trace)
		}
	}

	if cfg.Faults != nil {
		// The injector owns the Seed+6 stream; every server arms lease
		// expiry so a vehicle that vanishes mid-handshake is pruned instead
		// of blocking its lane FIFO forever. Window open/close events are
		// scheduled on the kernel: stalls toggle the target server, and
		// every window's edges land in the trace.
		net.SetInjector(fault.NewInjector(cfg.Faults, rand.New(rand.NewSource(cfg.Seed+6))))
		for k := range nodes {
			nodes[k].server.EnableLeaseExpiry(cfg.Faults.ResolvedLeaseTTL())
		}
		for _, fw := range cfg.Faults.Windows {
			fw := fw
			sim.At(fw.Start, func() {
				if fw.Kind == fault.Stall {
					nodes[fw.Node].server.SetStalled(true)
				}
				if cfg.Trace != nil {
					cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFaultBegin, T: sim.Now(), Node: fw.Node,
						Detail: fw.Kind.String(),
					})
				}
			})
			sim.At(fw.End(), func() {
				if fw.Kind == fault.Stall {
					nodes[fw.Node].server.SetStalled(false)
				}
				if cfg.Trace != nil {
					cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFaultEnd, T: sim.Now(), Node: fw.Node,
						Detail: fw.Kind.String(),
					})
				}
			})
		}
	}

	lanes := cfg.Intersection.LanesPerRoad
	return &world{
		cfg:         cfg,
		arrivals:    arrivals,
		sim:         sim,
		net:         net,
		x:           x,
		topo:        cfg.Topology,
		nodes:       nodes,
		col:         col,
		rngClock:    rand.New(rand.NewSource(cfg.Seed + 3)),
		rngPlant:    rand.New(rand.NewSource(cfg.Seed + 4)),
		agentCfg:    agentCfg,
		buffers:     buffers,
		corridors:   make([][]*vehState, 2*numNodes*intersection.NumApproaches*lanes),
		lanes:       lanes,
		overlapping: make(map[[2]int64]bool),
		bufOverlap:  make(map[[2]int64]bool),
		groups:      make([][]int, numNodes),
	}, nil
}

func (w *world) run() (Result, error) {
	maxLegs := 1
	for _, a := range w.arrivals {
		a := a
		w.sim.At(a.Time, func() { w.spawn(a) })
		if n := 1 + len(a.OnwardTurns); n > maxLegs {
			maxLegs = n
		}
	}
	maxTime := w.cfg.MaxSimTime
	if maxTime <= 0 {
		perLeg := 60 + 3*float64(len(w.arrivals))
		maxTime = w.arrivals[len(w.arrivals)-1].Time + perLeg*float64(maxLegs) +
			float64(maxLegs-1)*w.topo.SegmentLen()
		if w.cfg.Faults != nil {
			// Fault windows delay the fleet; give the derived horizon the
			// whole scripted period back so recovery is observable.
			maxTime += w.cfg.Faults.End()
		}
	}
	dt := w.cfg.PhysicsDt
	stop := w.sim.Ticker(w.arrivals[0].Time, dt, func() bool {
		w.step(dt)
		if w.spawned < len(w.arrivals) || len(w.active) > 0 {
			return true
		}
		// The fleet is done: stop the IM timers too, so the queue drains
		// and the run ends here rather than at the horizon.
		for _, n := range w.nodes {
			n.server.StopTimers()
		}
		return false
	})
	w.sim.RunUntil(maxTime)
	stop()

	incomplete := 0
	failsafe := 0
	stranded := 0
	for _, v := range w.active {
		if v.jrec.Done {
			continue
		}
		incomplete++
		// A vehicle that ends the run standing still on the approach, short
		// of the box, degraded gracefully; anything else — still moving, in
		// transit between nodes, or caught inside the box — is stranded.
		if !v.transit && !v.entered && v.plant.V() < 0.05 {
			failsafe++
		} else {
			stranded++
		}
	}
	st := w.net.TotalStats()
	w.col.Messages = st.Sent
	w.col.Bytes = st.Bytes
	if len(w.nodes) > 1 {
		// Fold the per-node scheduler and safety counters into the journey
		// view (single-node runs share the collector, so there is nothing
		// to fold).
		for _, n := range w.nodes {
			w.col.AbsorbCounters(n.col)
		}
	}
	var vehicles []metrics.VehicleRecord
	for _, r := range w.col.Records() {
		vehicles = append(vehicles, *r)
	}
	perNode := make([]metrics.Summary, len(w.nodes))
	for k := range w.nodes {
		perNode[k] = w.nodes[k].col.Summarize()
	}
	return Result{
		Policy:          w.nodes[0].server.Scheduler().Name(),
		Summary:         w.col.Summarize(),
		Network:         st,
		Vehicles:        vehicles,
		PerNode:         perNode,
		Incomplete:      incomplete,
		FailsafeStopped: failsafe,
		Stranded:        stranded,
	}, nil
}

// route resolves an arrival's turn list against the topology.
func (w *world) route(a traffic.Arrival) (legs []topology.Leg, movs []*intersection.Movement, turns []intersection.Turn) {
	turns = make([]intersection.Turn, 0, 1+len(a.OnwardTurns))
	turns = append(turns, a.Movement.Turn)
	turns = append(turns, a.OnwardTurns...)
	legs = w.topo.Route(topology.NodeID(a.Node), a.Movement.Approach, turns)
	if len(legs) == 0 {
		panic(fmt.Sprintf("sim: arrival %d has no route from node %d approach %v", a.ID, a.Node, a.Movement.Approach))
	}
	movs = make([]*intersection.Movement, len(legs))
	for k, leg := range legs {
		id := intersection.MovementID{Approach: leg.Approach, Lane: a.Movement.Lane, Turn: turns[k]}
		movs[k] = w.x.Movement(id)
		if movs[k] == nil {
			panic(fmt.Sprintf("sim: arrival %d references unknown movement %v", a.ID, id))
		}
	}
	return legs, movs, turns[:len(legs)]
}

// spawn routes an arrival and tries to spawn it.
func (w *world) spawn(a traffic.Arrival) {
	legs, movs, turns := w.route(a)
	w.trySpawn(&vehState{arr: a, legs: legs, movs: movs, turns: turns, movement: movs[0], node: a.Node})
}

// trySpawn materializes a routed arrival at its first node, or defers it.
func (w *world) trySpawn(vs *vehState) {
	a, m := vs.arr, vs.movement
	// Gate the spawn on the queue tail: a vehicle cannot materialize at
	// speed right behind a standing queue — upstream it would have slowed
	// or stopped. Cap the entry speed at the safe-approach envelope and
	// defer entirely when the queue reaches back to the transmission line.
	speed := a.Speed
	if tail := w.queueTail(a.Node, m.ID); tail != nil {
		gap := tail.plant.S() - (tail.plant.Params.Length+a.Params.Length)/2 - w.agentCfg.MinGap
		if gap < 0.05 {
			if vs.spawnRetry == nil {
				vs.spawnRetry = func() { w.trySpawn(vs) }
			}
			w.sim.After(0.25, vs.spawnRetry)
			return
		}
		vSafe := vehicle.SafeFollowSpeed(gap, tail.plant.V(), tail.plant.Params.MaxDecel,
			a.Params.MaxDecel, w.agentCfg.HeadwayTau)
		speed = math.Min(speed, vSafe)
	}
	w.spawned++
	if w.cfg.Trace != nil {
		w.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindSimSpawn, T: w.sim.Now(), Vehicle: a.ID, Node: a.Node,
			Detail: a.Movement.String(), Value: speed,
		})
	}
	pl, err := plant.New(m.Path, a.Params, 0, speed, w.cfg.Noise, w.rngPlant)
	if err != nil {
		panic(fmt.Sprintf("sim: plant for %d: %v", a.ID, err))
	}
	clk := timesync.NewSyncedClock(
		timesync.NewRandomClock(w.rngClock, w.cfg.ClockMaxOffset, w.cfg.ClockMaxDriftPPM), 8)

	vs.plant = pl
	acfg := w.agentCfg
	acfg.IMEndpoint = im.NodeEndpoint(a.Node)
	acfg.Node = a.Node
	agent, err := vehicle.New(a.ID, m, pl, clk, acfg, w.sim, w.net, w.leaderFor(vs))
	if err != nil {
		panic(fmt.Sprintf("sim: agent for %d: %v", a.ID, err))
	}
	vs.agent = agent

	jrec := w.col.Vehicle(a.ID)
	jrec.Movement = a.Movement.String()
	// Wait time is measured from the *intended* transmission-line arrival,
	// so time spent queuing behind a backed-up lane counts as delay.
	jrec.SpawnTime = a.Time
	// Journey free flow covers the full route: each non-final leg's local
	// path plus the inter-node segment, then the final leg to box exit.
	movs := vs.movs
	total := movs[len(movs)-1].ExitS + a.Params.Length/2
	for k := 0; k < len(movs)-1; k++ {
		total += movs[k].Length + w.topo.SegmentLen()
	}
	eta, _, _ := kinematics.EarliestArrival(0, total, a.Speed, a.Params)
	jrec.FreeFlowTime = eta
	vs.jrec = jrec

	nrec := jrec
	if len(w.nodes) > 1 {
		nrec = w.nodes[a.Node].col.Vehicle(a.ID)
		nrec.Movement = m.ID.String()
		nrec.SpawnTime = a.Time
		legEta, _, _ := kinematics.EarliestArrival(0, m.ExitS+a.Params.Length/2, a.Speed, a.Params)
		nrec.FreeFlowTime = legEta
	}
	vs.nrec = nrec

	w.active = append(w.active, vs)
	w.corridorsStale = true
	agent.Start()
}

// beginTransit despawns a vehicle from its current node's local frame and
// schedules its arrival at the next node's transmission line, carrying the
// exit speed across the connecting segment.
func (w *world) beginTransit(v *vehState) {
	v.transit = true
	w.corridorsStale = true
	eta, vArr, _ := kinematics.EarliestArrival(0, w.topo.SegmentLen(), v.plant.V(), v.plant.Params)
	v.legArrive = w.sim.Now() + eta
	v.legSpeed = vArr
	if v.enterNext == nil {
		v.enterNext = func() { w.enterLeg(v) }
	}
	w.sim.After(eta, v.enterNext)
}

// enterLeg re-enters a transiting vehicle at the next node on its route,
// with the same spawn gating as a fresh arrival: a queue reaching back to
// the transmission line defers entry, otherwise the entry speed is capped
// by the safe-following envelope behind the queue tail.
func (w *world) enterLeg(v *vehState) {
	leg := v.leg + 1
	m := v.movs[leg]
	node := int(v.legs[leg].Node)
	speed := v.legSpeed
	if tail := w.queueTail(node, m.ID); tail != nil {
		gap := tail.plant.S() - (tail.plant.Params.Length+v.plant.Params.Length)/2 - w.agentCfg.MinGap
		if gap < 0.05 {
			w.sim.After(0.25, v.enterNext)
			return
		}
		vSafe := vehicle.SafeFollowSpeed(gap, tail.plant.V(), tail.plant.Params.MaxDecel,
			v.plant.Params.MaxDecel, w.agentCfg.HeadwayTau)
		speed = math.Min(speed, vSafe)
	}
	pl, err := plant.New(m.Path, v.plant.Params, 0, speed, w.cfg.Noise, w.rngPlant)
	if err != nil {
		panic(fmt.Sprintf("sim: leg plant for %d: %v", v.arr.ID, err))
	}
	v.leg = leg
	v.node = node
	v.movement = m
	v.plant = pl
	v.entered = false
	v.done = false
	v.transit = false
	w.corridorsStale = true
	v.legRetries0 = v.agent.Retries

	nrec := w.nodes[node].col.Vehicle(v.arr.ID)
	nrec.Movement = m.ID.String()
	nrec.SpawnTime = v.legArrive
	legEta, _, _ := kinematics.EarliestArrival(0, m.ExitS+v.plant.Params.Length/2, v.legSpeed, v.plant.Params)
	nrec.FreeFlowTime = legEta
	v.nrec = nrec

	if w.cfg.Trace != nil {
		w.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindSimHop, T: w.sim.Now(), Vehicle: v.arr.ID, Node: node,
			Detail: m.ID.String(), Value: speed,
		})
	}
	v.agent.BeginLeg(m, pl, im.NodeEndpoint(node), node)
}

// queueTail returns the rearmost active vehicle on the node's entry lane
// that is still on the approach, or nil. It runs between ticks, where the
// corridor index may be stale, so it scans the fleet.
func (w *world) queueTail(node int, mv intersection.MovementID) *vehState {
	var tail *vehState
	minS := math.Inf(1)
	for _, v := range w.active {
		if v.gone || v.transit || v.node != node {
			continue
		}
		if v.movement.ID.Approach == mv.Approach && v.movement.ID.Lane == mv.Lane &&
			v.plant.S() < v.movement.EnterS && v.plant.S() < minS {
			minS = v.plant.S()
			tail = v
		}
	}
	return tail
}

// corridorSlot returns the corridor index slot of the vehicles at node
// entering on approach a's lane (exit false), or leaving along direction a
// on that lane (exit true).
func (w *world) corridorSlot(node int, a intersection.Approach, lane int, exit bool) int {
	k := 2 * ((node*intersection.NumApproaches+int(a))*w.lanes + lane)
	if exit {
		k++
	}
	return k
}

// indexCorridors rebuilds the corridor index from the active vehicles that
// are at a node, if it is stale. Only a spawn, a leg entry, a transit's
// start and a despawn change a vehicle's node, lane or presence at a node,
// and each marks the index stale; none runs inside step's control loop, so
// the index built before it holds for the whole loop. Between those
// events the active list keeps its order and neither gains nor loses a
// vehicle at a node, so an index that is not stale equals a rebuilt one.
func (w *world) indexCorridors() {
	if !w.corridorsStale {
		return
	}
	w.corridorsStale = false
	for _, k := range w.filled {
		w.corridors[k] = w.corridors[k][:0]
	}
	w.filled = w.filled[:0]
	for _, v := range w.active {
		if v.gone || v.transit {
			continue
		}
		id := v.movement.ID
		v.entrySlot = w.corridorSlot(v.node, id.Approach, id.Lane, false)
		v.exitSlot = w.corridorSlot(v.node, v.movement.Exit, id.Lane, true)
		for _, k := range [2]int{v.entrySlot, v.exitSlot} {
			if len(w.corridors[k]) == 0 {
				w.filled = append(w.filled, k)
			}
			w.corridors[k] = append(w.corridors[k], v)
		}
	}
}

// leaderFor builds the car-following oracle for one vehicle: the nearest
// vehicle ahead in the same corridor (shared approach lane before the box,
// shared exit lane after it, or the identical movement throughout) at the
// same topology node. corridorGap accepts only a vehicle on self's entry
// lane while self is on the approach, and only one on self's exit lane
// after that, so the oracle scans that one slot of the corridor index; the
// slot keeps active order, so ties go to the same vehicle as in a scan of
// the whole fleet.
func (w *world) leaderFor(self *vehState) vehicle.LeaderFunc {
	return func() (vehicle.LeaderInfo, bool) {
		sSelf := self.plant.S()
		corridor := w.corridors[self.exitSlot]
		if sSelf < self.movement.EnterS {
			corridor = w.corridors[self.entrySlot]
		}
		best := vehicle.LeaderInfo{Gap: math.Inf(1)}
		found := false
		for _, o := range corridor {
			if o == self {
				continue
			}
			gap, merge, ok := corridorGap(self, o, sSelf)
			if ok && gap < best.Gap {
				best = vehicle.LeaderInfo{
					Gap:   gap,
					Speed: o.plant.V(),
					Decel: o.plant.Params.MaxDecel,
					Merge: merge,
				}
				found = true
			}
		}
		return best, found
	}
}

// corridorGap returns the bumper-to-bumper distance from self to other if
// other is ahead of self in the same driving corridor. Inside the box
// itself the reservation system owns separation: a vehicle must never stop
// there for car-following, or it breaks its own reservation and gridlocks
// the intersection.
func corridorGap(self, other *vehState, sSelf float64) (gap float64, merge, ok bool) {
	sm, om := self.movement, other.movement
	halfSum := (self.plant.Params.Length + other.plant.Params.Length) / 2
	sOther := other.plant.S()

	if sSelf < sm.EnterS {
		// On the approach: follow anything ahead on the same entry lane
		// that has not yet cleared the box (its in-box arc length is a
		// close proxy for corridor distance near the entry).
		sameEntry := sm.ID.Approach == om.ID.Approach && sm.ID.Lane == om.ID.Lane
		if sameEntry && sOther > sSelf && sOther < om.ExitS {
			return sOther - sSelf - halfSum, false, true
		}
		return 0, false, false
	}
	if sSelf >= sm.ExitS {
		// Past the box: follow along the shared exit lane.
		sameExit := sm.Exit == om.Exit && sm.ID.Lane == om.ID.Lane
		if sameExit {
			rs := sSelf - sm.ExitS
			ro := sOther - om.ExitS
			if ro > rs && sOther >= om.ExitS {
				return ro - rs - halfSum, true, true
			}
		}
		return 0, false, false
	}
	// Inside the box: cross-traffic separation is the reservation
	// system's job, but a vehicle already *past* the box on our exit lane
	// is a physical obstacle we must not catch — and since done vehicles
	// accelerate away, yielding to them cannot stall us in the box.
	sameExit := sm.Exit == om.Exit && sm.ID.Lane == om.ID.Lane
	if sameExit && sOther >= om.ExitS {
		rs := sSelf - sm.ExitS
		ro := sOther - om.ExitS
		if ro > rs {
			return ro - rs - halfSum, true, true
		}
	}
	return 0, false, false
}

func (w *world) step(dt float64) {
	now := w.sim.Now()
	w.indexCorridors()
	// Control + physics.
	for _, v := range w.active {
		if v.gone || v.transit {
			continue
		}
		vCmd := v.agent.ControlStep(now, dt)
		v.plant.Step(vCmd, dt)
	}
	// Lifecycle transitions.
	kept := w.active[:0]
	for _, v := range w.active {
		if v.transit {
			kept = append(kept, v)
			continue
		}
		s := v.plant.S()
		if !v.entered && s >= v.movement.EnterS {
			v.entered = true
			v.nrec.EnterTime = now
		}
		if !v.done && s >= v.movement.ExitS+v.plant.Params.Length/2 {
			v.done = true
			v.nrec.ExitTime = now
			v.nrec.Done = true
			v.nrec.Retries = v.agent.Retries - v.legRetries0
			if v.lastLeg() {
				v.jrec.ExitTime = now
				v.jrec.Done = true
				v.jrec.Retries = v.agent.Retries
			}
			if w.cfg.Trace != nil {
				w.cfg.Trace.Emit(trace.Event{
					Kind: trace.KindSimExit, T: now, Vehicle: v.arr.ID, Node: v.node,
					Detail: v.movement.ID.String(),
				})
			}
			v.agent.NotifyExit()
		}
		if s >= v.movement.Length-1e-6 {
			if v.lastLeg() {
				v.gone = true
				w.corridorsStale = true
				v.jrec.Retries = v.agent.Retries
				v.agent.Stop()
				continue
			}
			w.beginTransit(v)
		}
		kept = append(kept, v)
	}
	w.active = kept

	w.tick++
	if w.tick%w.cfg.CollisionEvery == 0 {
		w.checkCollisions()
	}
	if w.cfg.Observer != nil {
		every := w.cfg.ObserverEvery
		if every <= 0 {
			every = 10
		}
		if w.tick%every == 0 {
			w.views = w.views[:0]
			for _, v := range w.active {
				if v.transit {
					continue
				}
				w.views = append(w.views, VehicleView{
					ID:       v.arr.ID,
					Pose:     v.plant.Pose(),
					Speed:    v.plant.V(),
					State:    v.agent.State().String(),
					Movement: v.movement.ID,
					Node:     v.node,
				})
			}
			w.cfg.Observer(now, w.views)
		}
	}
}

// safeBody is one vehicle's geometry for a single safety check. Only a
// vehicle that shares its node with another gets a footprint; the buffered
// footprint and the near-box flag are computed when a pair first needs
// them.
type safeBody struct {
	v  *vehState
	fp geom.Rect // ground-truth footprint
	// rank is the body's position in its node's group.
	rank int
	buf  geom.Rect // footprint inflated by the safety buffers, if hasBuf
	// near marks a footprint touching the box expanded by the longitudinal
	// buffer plus 0.5 m, if nearKnown: the buffer contract is only judged
	// there.
	near, nearKnown, hasBuf bool
}

// nearBox reports whether the footprint touches box.
func (b *safeBody) nearBox(box geom.AABB) bool {
	if !b.nearKnown {
		b.near, b.nearKnown = box.Overlaps(b.fp.AABB()), true
	}
	return b.near
}

// buffered returns the footprint inflated by the safety buffers.
func (b *safeBody) buffered(buffers safety.Buffers) geom.Rect {
	if !b.hasBuf {
		b.buf, b.hasBuf = b.fp.Inflate(buffers.Long, buffers.Lat), true
	}
	return b.buf
}

// checkCollisions counts physical body overlaps (anywhere) and planning-
// buffer overlaps between cross traffic near the box — the safety contract
// the IM policies must uphold. Plants live in their node's local frame, so
// only same-node pairs are compared; violations are charged to the node
// where they happened. Each overlap counts once, on its rising edge: the
// overlapping and bufOverlap sets hold exactly the pairs overlapping as of
// the last check that judged them.
//
// The pairs are visited in active order, each vehicle with the vehicles
// after it in its node's group, so rising edges and trace events come in
// the order of a scan over every pair of the fleet. A pair whose centres
// are farther apart on either axis than the sum of the two bounding radii
// is apart without calling Intersects, which would reject it on the same
// sum (a NaN centre still goes to Intersects). A cross-approach pair whose
// buffers are apart that way skips the near-box judgement while no buffer
// pair overlaps: either outcome of it would leave bufOverlap unchanged.
func (w *world) checkCollisions() {
	for k := range w.groups {
		w.groups[k] = w.groups[k][:0]
	}
	w.bodies = w.bodies[:0]
	for _, v := range w.active {
		if v.transit {
			continue
		}
		w.bodies = append(w.bodies, safeBody{v: v, rank: len(w.groups[v.node])})
		w.groups[v.node] = append(w.groups[v.node], len(w.bodies)-1)
	}
	for _, g := range w.groups {
		if len(g) < 2 {
			continue
		}
		for _, i := range g {
			b := &w.bodies[i]
			b.fp = b.v.plant.Footprint()
			if b.v.fpR == 0 {
				b.v.fpR, b.v.bufR = b.fp.Radius(), b.buffered(w.buffers).Radius()
			}
		}
	}
	box := w.x.Box().Expand(w.buffers.Long + 0.5)
	for i := range w.bodies {
		bi := &w.bodies[i]
		vi := bi.v
		for _, j := range w.groups[vi.node][bi.rank+1:] {
			bj := &w.bodies[j]
			vj := bj.v
			// fp and buf share a centre.
			dx := math.Abs(bi.fp.Center.X - bj.fp.Center.X)
			dy := math.Abs(bi.fp.Center.Y - bj.fp.Center.Y)
			key := [2]int64{vi.arr.ID, vj.arr.ID}
			r := vi.fpR + vj.fpR
			hit := !(dx > r || dy > r) && bi.fp.Intersects(bj.fp)
			if risingEdge(w.overlapping, key, hit) {
				w.nodes[vi.node].col.Collisions++
				if w.cfg.Trace != nil {
					w.cfg.Trace.Emit(trace.Event{
						Kind: trace.KindSimCollision, T: w.sim.Now(), Node: vi.node,
						Vehicle: vi.arr.ID, Other: vj.arr.ID, Detail: pairDetail(vi, vj),
					})
				}
			}

			// Buffer contract: only cross-approach pairs near the box are
			// the IM's responsibility (same-lane spacing is car following).
			if vi.movement.ID.Approach == vj.movement.ID.Approach {
				continue
			}
			r = vi.bufR + vj.bufR
			apart := dx > r || dy > r
			if apart && len(w.bufOverlap) == 0 {
				continue
			}
			if !bi.nearBox(box) || !bj.nearBox(box) {
				continue
			}
			hit = !apart && bi.buffered(w.buffers).Intersects(bj.buffered(w.buffers))
			if risingEdge(w.bufOverlap, key, hit) {
				w.nodes[vi.node].col.BufferViolations++
				if w.cfg.Trace != nil {
					w.cfg.Trace.Emit(trace.Event{
						Kind: trace.KindSimBufViol, T: w.sim.Now(), Node: vi.node,
						Vehicle: vi.arr.ID, Other: vj.arr.ID, Detail: pairDetail(vi, vj),
					})
				}
			}
		}
	}
}

// pairDetail is a safety event's Detail: the vehicle's and then the other
// vehicle's movement, arc position along its path (m) and speed (m/s).
// Each one's protocol state is on its own veh.state events.
func pairDetail(a, b *vehState) string {
	return fmt.Sprintf("%v s=%.3f v=%.3f; %v s=%.3f v=%.3f",
		a.movement.ID, a.plant.S(), a.plant.V(), b.movement.ID, b.plant.S(), b.plant.V())
}

// risingEdge records whether pair key overlaps now in set, which holds
// only overlapping pairs, and reports whether the overlap is new. Most
// checks find nothing overlapping, so an empty set skips the lookup.
func risingEdge(set map[[2]int64]bool, key [2]int64, now bool) bool {
	if !now {
		if len(set) > 0 {
			delete(set, key)
		}
		return false
	}
	if set[key] {
		return false
	}
	set[key] = true
	return true
}
