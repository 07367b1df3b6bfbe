package im

import (
	"crossroads/internal/intersection"
	"crossroads/internal/network"
	"crossroads/internal/trace"
)

// This file is the IM↔IM coordination plane: servers broadcast periodic
// link-state digests to their topology neighbors over the shared network
// (same delay/loss/fault/trace treatment as V2I traffic) and use the
// received state for two admission behaviors — downstream backpressure
// (hold a vehicle short of the line instead of granting it into a
// saturated segment) and corridor green-wave offsets (bias a grant so the
// vehicle arrives downstream at the tail of the granted platoon instead of
// stopping twice). Everything here is armed by EnableCoordination; a
// server that never calls it runs byte-identically to earlier builds.

// DigestPayload is one link-state digest, the Payload of a
// network.KindDigest message.
type DigestPayload struct {
	// Node is the emitting intersection.
	Node int
	// Seq numbers the emitter's digests; receivers keep the newest per
	// node (a delayed or duplicated digest must not roll state back).
	Seq int
	// T is the emitter's clock at emission; receivers age digests against
	// it and discard stale state.
	T float64
	// QueueDepth counts, per entry approach, the vehicles in contact with
	// the emitter (requested, not yet exited) — the admission queue an
	// arriving vehicle joins.
	QueueDepth [intersection.NumApproaches]int
	// FlowHorizon is, per outgoing segment (indexed by exit direction),
	// the latest granted box-entry time among reservations flowing into
	// that segment; 0 means no granted flow.
	FlowHorizon [intersection.NumApproaches]float64
}

// CoordPeer names one adjacent IM on the coordination plane.
type CoordPeer struct {
	Node     int
	Endpoint string
}

// CoordConfig parameterizes the coordination plane.
type CoordConfig struct {
	// Period is the digest broadcast period (s).
	Period float64
	// SegmentTransit is the estimated time (s) from granted box entry at
	// one node to box entry at the next: box crossing, exit run, segment,
	// and approach run at cruise speed. The world computes it from the
	// topology geometry.
	SegmentTransit float64
	// MaxQueue is the backpressure threshold: admission into a segment is
	// deferred while the downstream digest reports at least this many
	// vehicles on the receiving approach.
	MaxQueue int
	// MaxDefers bounds consecutive backpressure deferrals per vehicle;
	// the next request is admitted regardless. This keeps holds finite
	// and breaks the circular-wait a loop of saturated grid nodes could
	// otherwise enter.
	MaxDefers int
	// MaxHold caps how far beyond the request-processing time a
	// green-wave offset may push the arrival floor (s).
	MaxHold float64
	// GreenMargin is the headway (s) added behind the downstream flow
	// horizon when deriving the green-wave floor.
	GreenMargin float64
	// StaleAfter discards digests older than this (s): link faults must
	// degrade coordination toward uncoordinated behavior, not freeze it
	// on stale state.
	StaleAfter float64
}

// DefaultCoordConfig returns the tuned defaults: digests twice a second,
// backpressure at 6 queued vehicles with at most 3 consecutive holds, and
// green-wave offsets capped at 4 s.
func DefaultCoordConfig() CoordConfig {
	return CoordConfig{
		Period:      0.5,
		MaxQueue:    6,
		MaxDefers:   3,
		MaxHold:     4.0,
		GreenMargin: 0.25,
		StaleAfter:  2.5,
	}
}

// FlowReporter is an optional Scheduler extension the coordination plane
// uses to fill a digest's FlowHorizon: the latest granted box-entry time
// per outgoing segment (indexed by exit direction) among reservations not
// yet in the past. Schedulers without it advertise zero horizons.
type FlowReporter interface {
	FlowHorizons(now float64) [intersection.NumApproaches]float64
}

// CoordDeferrer is an optional Scheduler extension enabling downstream
// backpressure: DeferResponse returns the reply that holds a vehicle short
// of the line so it re-requests later (a stop command for the
// velocity-transaction policies), cleaning up any stale booking first.
// Schedulers without it are never backpressured.
type CoordDeferrer interface {
	DeferResponse(req Request) Response
}

// coordState is a server's view of the coordination plane.
type coordState struct {
	cfg   CoordConfig
	peers []CoordPeer
	// downstream maps direction of travel to the neighbor reached.
	downstream map[intersection.Approach]CoordPeer
	// digests keeps the newest digest per neighbor node.
	digests map[int]DigestPayload
	seq     int
	// approachOf tracks each in-contact vehicle's entry approach;
	// depth aggregates it per approach for the digest.
	approachOf map[int64]intersection.Approach
	depth      [intersection.NumApproaches]int
	// defers counts consecutive backpressure holds per vehicle.
	defers map[int64]int
}

// EnableCoordination arms the coordination plane: the server starts
// broadcasting digests to peers every cfg.Period and biases admission by
// the neighbors' digests (backpressure against downstream, green-wave
// offsets along downstream). downstream maps each exit direction to the
// neighbor it feeds. A server without peers stays silent but still tracks
// queue depth (a boundary node in a corridor still answers its upstream).
func (s *Server) EnableCoordination(cfg CoordConfig, peers []CoordPeer, downstream map[intersection.Approach]CoordPeer) {
	if s.coord != nil || cfg.Period <= 0 {
		return
	}
	s.coord = &coordState{
		cfg:        cfg,
		peers:      peers,
		downstream: downstream,
		digests:    make(map[int]DigestPayload),
		approachOf: make(map[int64]intersection.Approach),
		defers:     make(map[int64]int),
	}
	s.scheduleDigest()
}

// Coordinating reports whether the coordination plane is armed.
func (s *Server) Coordinating() bool { return s.coord != nil }

// CoordDigest returns the newest digest received from a neighbor node.
func (s *Server) CoordDigest(node int) (DigestPayload, bool) {
	if s.coord == nil {
		return DigestPayload{}, false
	}
	d, ok := s.coord.digests[node]
	return d, ok
}

func (s *Server) scheduleDigest() {
	s.digestTimer = s.sim.After(s.coord.cfg.Period, func() {
		s.broadcastDigest()
		s.scheduleDigest()
	})
}

// broadcastDigest sends the current link state to every peer. The digests
// ride the ordinary network Send path, so they draw the same delay
// samples, loss coins, and fault-injector verdicts as vehicle traffic. A
// stalled IM broadcasts nothing (its radio answers nothing), which ages
// its neighbors' view of it toward discard — exactly the degradation a
// dead peer should produce.
func (s *Server) broadcastDigest() {
	if s.stalled || len(s.coord.peers) == 0 {
		return
	}
	c := s.coord
	c.seq++
	p := DigestPayload{Node: s.node, Seq: c.seq, T: s.sim.Now(), QueueDepth: c.depth}
	if fr, ok := s.sched.(FlowReporter); ok {
		p.FlowHorizon = fr.FlowHorizons(s.sim.Now())
	}
	for _, peer := range c.peers {
		s.net.Send(network.Message{
			Kind:    network.KindDigest,
			From:    s.endpoint,
			To:      peer.Endpoint,
			Payload: p,
		})
	}
}

// handleDigest stores a neighbor's digest, keeping only the newest per
// node (loss-injected duplicates and delay-reordered copies must not roll
// the view back).
func (s *Server) handleDigest(now float64, msg network.Message) {
	p, ok := msg.Payload.(DigestPayload)
	if s.coord == nil || !ok || s.stalled {
		return
	}
	if prev, seen := s.coord.digests[p.Node]; seen && prev.Seq >= p.Seq {
		return
	}
	s.coord.digests[p.Node] = p
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.KindIMDigest, T: now, Node: s.node,
			From: msg.From, Seq: p.Seq, Value: p.T,
		})
	}
}

// noteContact records a requesting vehicle's entry approach for the
// digest's queue depth.
func (c *coordState) noteContact(id int64, a intersection.Approach) {
	if prev, ok := c.approachOf[id]; ok {
		if prev == a {
			return
		}
		c.depth[prev]--
	}
	c.approachOf[id] = a
	c.depth[a]++
}

// noteExit releases a vehicle from the queue-depth accounting.
func (c *coordState) noteExit(id int64) {
	if a, ok := c.approachOf[id]; ok {
		c.depth[a]--
		delete(c.approachOf, id)
	}
	delete(c.defers, id)
}

// freshDownstream resolves the digest governing a request's exit segment:
// the downstream neighbor it feeds and that neighbor's newest non-stale
// digest.
func (c *coordState) freshDownstream(now float64, req Request) (CoordPeer, DigestPayload, bool) {
	exitDir := req.Movement.Turn.Exit(req.Movement.Approach)
	peer, ok := c.downstream[exitDir]
	if !ok {
		return CoordPeer{}, DigestPayload{}, false
	}
	g, ok := c.digests[peer.Node]
	if !ok || now-g.T > c.cfg.StaleAfter {
		return CoordPeer{}, DigestPayload{}, false
	}
	return peer, g, true
}

// deferVerdict decides downstream backpressure for a request about to be
// served: hold the vehicle when the downstream digest reports a saturated
// receiving approach, unless the vehicle is committed (it cannot stop),
// already held MaxDefers times in a row, or the scheduler cannot express a
// hold. Returns the saturated neighbor and its reported depth.
func (s *Server) deferVerdict(now float64, req Request) (CoordPeer, int, bool) {
	c := s.coord
	if req.Committed {
		return CoordPeer{}, 0, false
	}
	if _, ok := s.sched.(CoordDeferrer); !ok {
		return CoordPeer{}, 0, false
	}
	peer, g, ok := c.freshDownstream(now, req)
	if !ok {
		return CoordPeer{}, 0, false
	}
	// The exit direction is the entry approach downstream (approaches are
	// named by direction of travel).
	depth := g.QueueDepth[req.Movement.Turn.Exit(req.Movement.Approach)]
	if depth < c.cfg.MaxQueue {
		return CoordPeer{}, 0, false
	}
	if c.defers[req.VehicleID] >= c.cfg.MaxDefers {
		return CoordPeer{}, 0, false
	}
	return peer, depth, true
}

// greenFloor derives the green-wave arrival floor for a request: the local
// box-entry time that projects the vehicle onto the tail of the downstream
// node's granted flow into its continuing segment (horizon + margin −
// segment transit), capped at now + MaxHold so a runaway downstream
// horizon cannot starve the local approach. Returns 0 when no bias
// applies; the scheduler takes the max with its own earliest.
func (s *Server) greenFloor(now float64, req Request) float64 {
	c := s.coord
	_, g, ok := c.freshDownstream(now, req)
	if !ok {
		return 0
	}
	h := g.FlowHorizon[req.Movement.Turn.Exit(req.Movement.Approach)]
	if h <= 0 {
		return 0
	}
	floor := h + c.cfg.GreenMargin - c.cfg.SegmentTransit
	if lim := now + c.cfg.MaxHold; floor > lim {
		floor = lim
	}
	if floor <= now {
		return 0
	}
	return floor
}
