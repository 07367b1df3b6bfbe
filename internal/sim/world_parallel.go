package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"crossroads/internal/des"
	"crossroads/internal/fault"
	"crossroads/internal/im"
	"crossroads/internal/im/batch"
	"crossroads/internal/intersection"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/safety"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// pworld orchestrates a run on the conservative node-sharded parallel
// kernel (DESIGN.md §13). Each topology node becomes one shard: a serial
// `world` scoped to that node, with its own event queue, V2I network, IM
// server, RNG streams, and trace recorder, executing concurrently inside
// the kernel's lookahead windows. Everything that crosses a shard line —
// vehicle hops and V2I traffic chasing a hopped vehicle — goes through the
// kernel's barrier exchange, so each shard's goroutine only ever touches
// its own state and the run is deterministic at any worker count.
//
// The lookahead is SegmentLen/maxFleetSpeed: no vehicle can traverse an
// inter-node segment faster than at its top speed, so every hop lands at
// least one lookahead after it departs. V2I messages carry no such
// guarantee; the rare cross-shard ones (exit retransmissions to a previous
// node, which arise only under fault injection) are clamped to the barrier
// closing their window — a documented divergence from the serial kernel,
// still fully deterministic.
type pworld struct {
	cfg      Config
	arrivals []traffic.Arrival

	par    *des.Parallel
	shards []*world
	// imShard maps each IM endpoint name to its owning shard, for routing
	// V2I traffic sent to a remote node's IM. Read-only after construction.
	imShard map[string]int
	// jcol is the journey-level collector. Its per-vehicle records are
	// pre-created for every arrival (in arrival order) before the shards
	// start, so runtime lookups are pure map reads and each record is only
	// ever written by the shard currently carrying its vehicle.
	jcol *metrics.Collector
	// recs holds the per-shard trace recorders (nil when cfg.Trace is nil);
	// they are merged deterministically into cfg.Trace after the run.
	recs []*trace.Recorder

	// remaining counts journeys not yet absorbed. Shards decrement it (from
	// their own goroutines, hence atomic) as vehicles leave the roadway; it
	// is *read* only by the kernel's barrier hook, single-threaded between
	// windows, so the transition to zero is observed at a deterministic
	// barrier regardless of worker count.
	remaining atomic.Int64
	// fleetDone is set by the barrier hook once remaining hits zero. The
	// per-shard physics tickers poll it and stop, with their IM's timers,
	// letting the shard queues drain and the run end as soon as trailing
	// network events finish —
	// the parallel analogue of the serial kernel's conditional ticker.
	// Written between windows, read inside them: the window goroutine
	// spawn/join edges order those accesses.
	fleetDone bool
}

// shardRouter chases V2I messages whose destination endpoint is not
// registered on shard idx: remote IMs resolve through the static endpoint
// map, hopped-away vehicles through the shard's departed map. Accepted
// messages travel through the kernel's barrier exchange and are delivered
// on the destination shard's network at max(send time, barrier).
type shardRouter struct {
	pw  *pworld
	idx int
}

func (r *shardRouter) Route(msg network.Message, detail string) bool {
	dst, ok := r.pw.imShard[msg.To]
	if !ok {
		dst, ok = r.pw.shards[r.idx].departed[msg.To]
		if !ok {
			return false // never lived here: undeliverable on this shard
		}
	}
	if dst == r.idx {
		return false
	}
	t := r.pw.shards[r.idx].sim.Now()
	pw := r.pw
	pw.par.ScheduleAt(r.idx, dst, t, func() {
		pw.shards[dst].net.DeliverRouted(msg, detail)
	})
	return true
}

// hop moves a vehicle from src's shard to the next node on its route. It
// runs on src's goroutine, inside beginTransit: the agent detaches from
// src's kernel and network here (cancelling every timer handle into src's
// event pool, which must never be touched cross-shard), and the arrival is
// handed to the kernel's barrier exchange. eta >= lookahead by
// construction, so the arrival executes at its exact serial-kernel time.
func (pw *pworld) hop(src *world, v *vehState) {
	dst := int(v.legs[v.leg+1].Node)
	v.agent.PrepareHop()
	src.departed[v.agent.Endpoint()] = dst
	pw.par.ScheduleAt(src.shardIdx, dst, v.legArrive, func() {
		pw.shards[dst].enterLeg(v)
	})
}

// newPWorld builds the sharded world. The caller (Run) has already
// established that the topology is multi-node with a positive segment
// length.
func newPWorld(cfg Config, arrivals []traffic.Arrival) (*pworld, error) {
	if !cfg.validated {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if cfg.Intersection == (intersection.Config{}) {
		cfg.Intersection = intersection.ScaleModelConfig()
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
	if cfg.PerfectClocks {
		cfg.ClockMaxOffset = 0
		cfg.ClockMaxDriftPPM = 0
	}
	if cfg.CollisionEvery <= 0 {
		cfg.CollisionEvery = 2
	}
	x, err := intersection.New(cfg.Intersection)
	if err != nil {
		return nil, err
	}
	numNodes := cfg.Topology.NumNodes()

	refLen, refWid := 0.0, 0.0
	maxSpeed := 0.0
	for _, a := range arrivals {
		if err := a.Params.Validate(); err != nil {
			return nil, fmt.Errorf("sim: arrival %d: %w", a.ID, err)
		}
		if a.Node < 0 || a.Node >= numNodes {
			return nil, fmt.Errorf("sim: arrival %d enters at node %d; topology %s has %d nodes",
				a.ID, a.Node, cfg.Topology, numNodes)
		}
		refLen = math.Max(refLen, a.Params.Length)
		refWid = math.Max(refWid, a.Params.Width)
		maxSpeed = math.Max(maxSpeed, a.Params.MaxSpeed)
	}
	if maxSpeed <= 0 {
		return nil, fmt.Errorf("sim: fleet max speed %v gives no finite lookahead", maxSpeed)
	}
	// The conservative lookahead: a vehicle at top speed still needs
	// SegmentLen/maxSpeed seconds to cross between nodes, so every hop
	// scheduled at departure+eta is at least one lookahead in the future.
	lookahead := cfg.Topology.SegmentLen() / maxSpeed

	opts := im.PolicyOptions{
		Spec:          cfg.Spec,
		Cost:          cfg.Cost,
		RefLength:     refLen,
		RefWidth:      refWid,
		OmitRTDBuffer: cfg.OmitRTDBuffer,
		AIMGridN:      cfg.AIMGridN,
		AIMTimeStep:   cfg.AIMTimeStep,
	}

	refParams := arrivals[0].Params
	for _, a := range arrivals {
		if a.Params.Length > refParams.Length {
			refParams = a.Params
		}
	}
	agentCfg := vehicle.DeriveConfig(cfg.Policy, cfg.Spec, refParams)
	if cfg.Policy == vehicle.PolicyBatch {
		agentCfg.ResponseTimeout = batch.DefaultConfig().Window + cfg.Spec.WorstRTD + 0.05
		agentCfg.CommandLatency = batch.DefaultConfig().Window + cfg.Spec.WorstRTD
	}
	if cfg.AgentOverrides != nil {
		agentCfg = *cfg.AgentOverrides
	}
	if cfg.Faults != nil {
		agentCfg.GrantTTL = cfg.Faults.ResolvedGrantTTL()
	}
	buffers := cfg.Spec.ForCrossroads()

	pw := &pworld{
		cfg:      cfg,
		arrivals: arrivals,
		par:      des.NewParallel(numNodes, lookahead, cfg.KernelWorkers),
		shards:   make([]*world, numNodes),
		imShard:  make(map[string]int, numNodes),
		jcol:     metrics.NewCollector(),
		recs:     make([]*trace.Recorder, numNodes),
	}
	for k := 0; k < numNodes; k++ {
		pw.imShard[im.NodeEndpoint(k)] = k
	}
	// Journey records exist for every arrival, in arrival order, before any
	// shard runs: the collector map is then never mutated concurrently, and
	// Records()/Summarize() order is independent of shard interleaving.
	for _, a := range arrivals {
		pw.jcol.Vehicle(a.ID)
	}

	for k := 0; k < numNodes; k++ {
		k64 := int64(k)
		sim := pw.par.Shard(k)
		// Per-shard RNG streams: each base stream (net delay +1, IM +2,
		// clocks +3, plants +4, loss +5, injector +6) gets a per-shard
		// offset of 1000*node. The IM stream is exactly the serial kernel's
		// per-node stream, so both kernels drive identical scheduler
		// decisions; the vehicle-facing streams are shard-local by
		// necessity (vehicles draw in shard arrival order), which is why
		// the exact-equivalence regime disables clock error and noise.
		rngNet := rand.New(rand.NewSource(cfg.Seed + 1 + 1000*k64))
		rngLoss := rand.New(rand.NewSource(cfg.Seed + 5 + 1000*k64))
		net := network.New(sim, rngNet, rngLoss, cfg.Delay, cfg.LossProb)
		col := metrics.NewCollector()
		rngIM := rand.New(rand.NewSource(cfg.Seed + 2 + 1000*k64))
		sched, err := im.NewScheduler(cfg.Policy.String(), x, opts, rngIM)
		if err != nil {
			return nil, err
		}
		server := im.NewServerAt(sim, net, sched, col, im.NodeEndpoint(k), k)

		shardCfg := cfg
		shardCfg.Trace = nil
		if cfg.Trace != nil {
			rec := trace.NewFull()
			rec.Now = sim.Now
			pw.recs[k] = rec
			shardCfg.Trace = rec
			net.SetTrace(rec)
			server.SetTrace(rec)
			if cfg.TraceDES {
				sim.SetTrace(rec)
			}
		}
		shardAgentCfg := agentCfg
		shardAgentCfg.Trace = shardCfg.Trace

		nodes := make([]worldNode, numNodes)
		nodes[k] = worldNode{server: server, col: col}

		w := &world{
			cfg:         shardCfg,
			arrivals:    arrivals,
			sim:         sim,
			net:         net,
			x:           x,
			topo:        cfg.Topology,
			nodes:       nodes,
			col:         pw.jcol,
			rngClock:    rand.New(rand.NewSource(cfg.Seed + 3 + 1000*k64)),
			rngPlant:    rand.New(rand.NewSource(cfg.Seed + 4 + 1000*k64)),
			agentCfg:    shardAgentCfg,
			buffers:     buffers,
			overlapping: make(map[[2]int64]bool),
			bufOverlap:  make(map[[2]int64]bool),
			pw:          pw,
			shardIdx:    k,
			departed:    make(map[string]int),
		}
		net.SetRouter(&shardRouter{pw: pw, idx: k})
		pw.shards[k] = w
	}

	if cfg.Coord {
		// IM↔IM digests ride the same barrier-exchange outboxes as every
		// other cross-shard message (shardRouter resolves remote IM
		// endpoints through imShard). The effective period is raised to at
		// least the lookahead window: a digest can then be clamped at most
		// one barrier forward, and the conservative synchronization regime
		// is untouched — shards never need to see each other inside a
		// window.
		ccfg := coordConfigFor(&cfg, arrivals, x, lookahead)
		for k := 0; k < numNodes; k++ {
			peers, downstream := coordPeersFor(cfg.Topology, k)
			pw.shards[k].nodes[k].server.EnableCoordination(ccfg, peers, downstream)
		}
	}

	if cfg.Faults != nil {
		for k := 0; k < numNodes; k++ {
			sh := pw.shards[k]
			sh.net.SetInjector(fault.NewInjector(cfg.Faults,
				rand.New(rand.NewSource(cfg.Seed+6+1000*int64(k)))))
			sh.nodes[k].server.EnableLeaseExpiry(cfg.Faults.ResolvedLeaseTTL())
		}
		for _, fw := range cfg.Faults.Windows {
			fw := fw
			// A stall toggles its target node's server, so its edges live on
			// that node's shard; other window kinds have no per-node side
			// effect and trace their edges on shard 0.
			home := 0
			if fw.Kind == fault.Stall {
				home = fw.Node
			}
			sh := pw.shards[home]
			sh.sim.At(fw.Start, func() {
				if fw.Kind == fault.Stall {
					sh.nodes[home].server.SetStalled(true)
				}
				if sh.cfg.Trace != nil {
					sh.cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFaultBegin, T: sh.sim.Now(), Node: fw.Node,
						Detail: fw.Kind.String(),
					})
				}
			})
			sh.sim.At(fw.End(), func() {
				if fw.Kind == fault.Stall {
					sh.nodes[home].server.SetStalled(false)
				}
				if sh.cfg.Trace != nil {
					sh.cfg.Trace.Emit(trace.Event{
						Kind: trace.KindFaultEnd, T: sh.sim.Now(), Node: fw.Node,
						Detail: fw.Kind.String(),
					})
				}
			})
		}
	}
	return pw, nil
}

func (pw *pworld) run() (Result, error) {
	maxLegs := 1
	for _, a := range pw.arrivals {
		a := a
		sh := pw.shards[a.Node]
		sh.sim.At(a.Time, func() { sh.spawn(a) })
		if n := 1 + len(a.OnwardTurns); n > maxLegs {
			maxLegs = n
		}
	}
	maxTime := pw.cfg.MaxSimTime
	if maxTime <= 0 {
		perLeg := 60 + 3*float64(len(pw.arrivals))
		maxTime = pw.arrivals[len(pw.arrivals)-1].Time + perLeg*float64(maxLegs) +
			float64(maxLegs-1)*pw.cfg.Topology.SegmentLen()
		if pw.cfg.Faults != nil {
			maxTime += pw.cfg.Faults.End()
		}
	}
	dt := pw.cfg.PhysicsDt
	// Every shard runs its physics ticker on the same grid as the serial
	// kernel's single ticker. A shard cannot know on its own whether the
	// *fleet* is done (a hop could still be inbound), so the tickers run
	// until the barrier hook — single-threaded between windows, hence
	// deterministic at any worker count — observes the journey count hit
	// zero; then they stop along with their shard's IM timers, the queues
	// drain trailing network events, and RunUntil ends without grinding
	// empty windows out to the horizon.
	pw.remaining.Store(int64(len(pw.arrivals)))
	pw.par.SetBarrierHook(func() {
		if pw.remaining.Load() == 0 {
			pw.fleetDone = true
		}
	})
	for _, sh := range pw.shards {
		sh := sh
		sh.sim.Ticker(pw.arrivals[0].Time, dt, func() bool {
			sh.step(dt)
			if !pw.fleetDone {
				return true
			}
			sh.nodes[sh.shardIdx].server.StopTimers()
			return false
		})
	}
	pw.par.RunUntil(maxTime)

	incomplete, failsafe, stranded := 0, 0, 0
	for _, sh := range pw.shards {
		for _, v := range sh.born {
			if v.jrec.Done {
				continue
			}
			incomplete++
			if !v.transit && !v.entered && v.plant.V() < 0.05 {
				failsafe++
			} else {
				stranded++
			}
		}
	}
	var st network.Stats
	for _, sh := range pw.shards {
		st.Add(sh.net.TotalStats())
	}
	pw.jcol.Messages = st.Sent
	pw.jcol.Bytes = st.Bytes
	for _, sh := range pw.shards {
		pw.jcol.AbsorbCounters(sh.nodes[sh.shardIdx].col)
	}
	var vehicles []metrics.VehicleRecord
	for _, r := range pw.jcol.Records() {
		vehicles = append(vehicles, *r)
	}
	perNode := make([]metrics.Summary, len(pw.shards))
	for k, sh := range pw.shards {
		perNode[k] = sh.nodes[k].col.Summarize()
	}
	pw.mergeTraces()
	return Result{
		Policy:          pw.shards[0].nodes[0].server.Scheduler().Name(),
		Kernel:          KernelParallel.String(),
		Summary:         pw.jcol.Summarize(),
		Network:         st,
		Vehicles:        vehicles,
		PerNode:         perNode,
		Incomplete:      incomplete,
		FailsafeStopped: failsafe,
		Stranded:        stranded,
	}, nil
}

// mergeTraces folds the per-shard recorders into the caller's recorder in
// deterministic order: ascending time, ties broken by shard index, with
// each shard's own emission order preserved (stable sort). The result is
// identical at any worker count.
func (pw *pworld) mergeTraces() {
	if pw.cfg.Trace == nil {
		return
	}
	type tagged struct {
		ev    trace.Event
		shard int
	}
	var all []tagged
	for k, rec := range pw.recs {
		if rec == nil {
			continue
		}
		for _, ev := range rec.Events() {
			all = append(all, tagged{ev: ev, shard: k})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.T != all[j].ev.T {
			return all[i].ev.T < all[j].ev.T
		}
		return all[i].shard < all[j].shard
	})
	// The caller's recorder must not restamp merged events: its injected
	// clock (if any) reflects no meaningful "now" after the run.
	pw.cfg.Trace.Now = nil
	for _, t := range all {
		pw.cfg.Trace.Emit(t.ev)
	}
}
