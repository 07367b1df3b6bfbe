package im

import (
	"sort"
	"strconv"
	"time"

	"crossroads/internal/des"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/trace"
)

// TraceSetter is implemented by schedulers that can forward an event
// recorder into their internals (the VT-family cores propagate it to the
// reservation book). Server.SetTrace uses it.
type TraceSetter interface {
	SetTrace(rec *trace.Recorder)
}

// GhostPruner is an optional Scheduler extension used by lease expiry:
// drop the per-vehicle bookkeeping (lane FIFO slot, seniority, stale
// booking) of a vehicle that went silent mid-handshake, so followers are
// never blocked behind a ghost. Implementations must refuse (return
// false) while the vehicle still holds a live reservation — a granted
// vehicle is silent by design until its exit report, and un-booking it
// mid-crossing would let the IM double-book its slot.
type GhostPruner interface {
	PruneGhost(now float64, vehicleID int64) bool
}

// SyncPayload carries the NTP timestamps of a sync exchange: the client's
// transmit time T1 and the server's receive/transmit times T2, T3 (equal
// here: the IM replies instantly). The client adds T4 on receipt.
type SyncPayload struct {
	T1, T2, T3 float64
}

// ExitPayload notifies the IM that a vehicle cleared the box.
type ExitPayload struct {
	VehicleID int64
	// ExitTimestamp is the vehicle's synchronized clock reading at exit,
	// used for the paper's wait-time accounting.
	ExitTimestamp float64
}

// EndpointName is the IM's network address.
const EndpointName = "im"

// Pusher is an optional Scheduler extension for policies that can revise
// already-issued grants (timed-command interfaces): after each request the
// server drains and transmits the pending unsolicited revisions (Seq 0).
type Pusher interface {
	TakePushes() []Push
}

// Deferred is an optional Scheduler extension for policies that hold their
// replies past the computation time (batching windows): ReleaseAt returns
// the earliest simulated time the response for req may be transmitted. The
// server stays free to process other requests while a reply is held.
type Deferred interface {
	ReleaseAt(now float64, req Request) float64
}

// Server is the network-facing intersection manager node. It answers sync
// exchanges immediately (they are interrupt-cheap) and serializes crossing
// requests through a FIFO queue, modeling each one's computation delay in
// simulated time — this is what produces the paper's worst-case 135 ms
// queueing computation delay when four vehicles arrive at once.
type Server struct {
	sim      *des.Simulator
	net      *network.Network
	sched    Scheduler
	col      *metrics.Collector
	trace    *trace.Recorder
	endpoint string
	node     int

	queue      []Request
	processing bool
	// next is processNext, bound once so scheduling it allocates nothing.
	next func()
	// replies pools the records of sent replies.
	replies []*reply
	// addrs caches the network address of each vehicle replied to, until
	// its exit or lease expiry.
	addrs map[int64]string

	// stalled freezes request service (fault injection): incoming
	// requests still buffer into the queue, but nothing is answered
	// until recovery.
	stalled bool
	// leaseTTL > 0 arms ghost pruning: lastSeen tracks each vehicle's
	// most recent contact, and a periodic sweep drops the bookkeeping of
	// vehicles silent for more than the TTL (never a live reservation;
	// see GhostPruner).
	leaseTTL float64
	lastSeen map[int64]float64
	// digestTimer and leaseTimer are the pending events of the two
	// self-rescheduling timers (digest broadcast, lease sweep); StopTimers
	// cancels them.
	digestTimer, leaseTimer des.Handle

	// coord is the IM↔IM coordination plane (see coord.go); nil — the
	// default — keeps every request path byte-identical to earlier builds.
	coord *coordState
}

// SetTrace attaches an event recorder to the server's decision stream
// (request intake with queue depth, grant/stop/reject verdicts, pushed
// revisions, sync exchanges) and forwards it to the scheduler when the
// policy supports it. nil detaches.
func (s *Server) SetTrace(rec *trace.Recorder) {
	s.trace = rec
	if ts, ok := s.sched.(TraceSetter); ok {
		ts.SetTrace(rec)
	}
}

// NewServer attaches a server running the given scheduler to the network at
// EndpointName (topology node 0). col may be nil to skip metrics accounting.
func NewServer(sim *des.Simulator, net *network.Network, sched Scheduler, col *metrics.Collector) *Server {
	return NewServerAt(sim, net, sched, col, EndpointName, 0)
}

// NewServerAt attaches a server at an explicit network address, tagging its
// trace events with the topology node it shards. Multi-node worlds run one
// server per intersection; use NodeEndpoint for the address so vehicles and
// servers agree on the naming scheme.
func NewServerAt(sim *des.Simulator, net *network.Network, sched Scheduler, col *metrics.Collector,
	endpoint string, node int) *Server {
	s := &Server{sim: sim, net: net, sched: sched, col: col, endpoint: endpoint, node: node, addrs: make(map[int64]string)}
	s.next = s.processNext
	net.Register(endpoint, s.handle)
	return s
}

// Endpoint returns the server's network address.
func (s *Server) Endpoint() string { return s.endpoint }

// Scheduler returns the wrapped policy.
func (s *Server) Scheduler() Scheduler { return s.sched }

// QueueLen returns the number of requests waiting or in service.
func (s *Server) QueueLen() int {
	n := len(s.queue)
	if s.processing {
		n++
	}
	return n
}

// SetStalled freezes or resumes request service (IM stall/outage fault).
// A stalled server still buffers incoming crossing requests — the radio
// keeps receiving — but answers nothing: no sync replies, no exit acks, no
// grants. On recovery the buffered queue drains in FIFO order.
func (s *Server) SetStalled(stalled bool) {
	if s.stalled == stalled {
		return
	}
	s.stalled = stalled
	if !stalled && !s.processing && len(s.queue) > 0 {
		s.processNext()
	}
}

// Stalled reports whether the server is currently stalled.
func (s *Server) Stalled() bool { return s.stalled }

// EnableLeaseExpiry arms ghost pruning with the given silence TTL: a
// periodic sweep (every ttl/2) hands vehicles unheard-from for more than
// ttl to the scheduler's GhostPruner. ttl <= 0 is a no-op. Fault-injected
// runs enable this; clean runs never pay for it.
func (s *Server) EnableLeaseExpiry(ttl float64) {
	if ttl <= 0 || s.leaseTTL > 0 {
		return
	}
	s.leaseTTL = ttl
	s.lastSeen = make(map[int64]float64)
	s.scheduleLeaseSweep()
}

func (s *Server) scheduleLeaseSweep() {
	s.leaseTimer = s.sim.After(s.leaseTTL/2, func() {
		s.sweepLeases()
		s.scheduleLeaseSweep()
	})
}

// StopTimers cancels the server's self-rescheduling timers: the digest
// broadcast and the lease sweep. Both re-arm forever, so a kernel whose
// fleet has finished calls this to let its queue drain instead of
// simulating IM upkeep out to the horizon. Message handling and request
// service are unaffected; the timers stay stopped.
func (s *Server) StopTimers() {
	s.digestTimer.Cancel()
	s.leaseTimer.Cancel()
}

// sweepLeases prunes vehicles silent for longer than the lease TTL. A
// refused prune (live reservation) stays in lastSeen and is retried next
// sweep; schedulers without a GhostPruner never prune — blocking behind a
// ghost is recoverable, double-booking a live crossing is not.
func (s *Server) sweepLeases() {
	if s.stalled {
		return
	}
	gp, ok := s.sched.(GhostPruner)
	if !ok {
		return
	}
	now := s.sim.Now()
	var stale []int64
	for id, t := range s.lastSeen {
		if now-t > s.leaseTTL {
			stale = append(stale, id)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, id := range stale {
		if !gp.PruneGhost(now, id) {
			continue
		}
		last := s.lastSeen[id]
		delete(s.lastSeen, id)
		delete(s.addrs, id)
		if s.coord != nil {
			s.coord.noteExit(id)
		}
		if s.trace != nil {
			s.trace.Emit(trace.Event{
				Kind: trace.KindIMLease, T: now, Node: s.node,
				Vehicle: id, Detail: "expired", Value: last,
			})
		}
	}
}

// touch records contact with a vehicle for lease accounting.
func (s *Server) touch(id int64) {
	if s.lastSeen != nil {
		s.lastSeen[id] = s.sim.Now()
	}
}

func (s *Server) handle(now float64, msg network.Message) {
	switch msg.Kind {
	case network.KindSyncRequest:
		p, ok := msg.Payload.(SyncPayload)
		if !ok || s.stalled {
			return
		}
		p.T2 = now
		p.T3 = now
		if s.trace != nil {
			s.trace.Emit(trace.Event{Kind: trace.KindSyncExchange, T: now, From: msg.From, Node: s.node})
		}
		s.net.Send(network.Message{
			Kind:    network.KindSyncResponse,
			From:    s.endpoint,
			To:      msg.From,
			Payload: p,
		})
	case network.KindRequest:
		req, ok := msg.Payload.(Request)
		if !ok {
			return
		}
		// Coalesce: a newer request from the same vehicle supersedes any
		// still-queued one (retransmissions would otherwise snowball the
		// queue under load).
		replaced := false
		for i := range s.queue {
			if s.queue[i].VehicleID == req.VehicleID {
				s.queue[i] = req
				replaced = true
				break
			}
		}
		if !replaced {
			s.queue = append(s.queue, req)
		}
		s.touch(req.VehicleID)
		if s.coord != nil {
			s.coord.noteContact(req.VehicleID, req.Movement.Approach)
		}
		if s.trace != nil {
			s.trace.Emit(trace.Event{
				Kind: trace.KindIMRequest, T: now, Node: s.node,
				Vehicle: req.VehicleID, Seq: req.Seq, Queue: s.QueueLen(),
			})
		}
		if !s.processing && !s.stalled {
			s.processNext()
		}
	case network.KindExit:
		p, ok := msg.Payload.(ExitPayload)
		if !ok || s.stalled {
			return
		}
		delete(s.lastSeen, p.VehicleID)
		delete(s.addrs, p.VehicleID)
		if s.coord != nil {
			s.coord.noteExit(p.VehicleID)
		}
		s.sched.HandleExit(now, p.VehicleID)
		// Exits are retransmitted until acknowledged: losing one would
		// wedge the lane FIFO behind a ghost.
		s.net.Send(network.Message{
			Kind:    network.KindAck,
			From:    s.endpoint,
			To:      msg.From,
			Payload: p,
		})
	case network.KindDigest:
		s.handleDigest(now, msg)
	case network.KindRegister:
		// Registration is implicit; nothing to track beyond the network
		// layer's own endpoint table.
	}
}

// processNext services the head of the FIFO queue: compute the response,
// hold the server busy for the simulated computation delay, transmit, then
// move on.
func (s *Server) processNext() {
	if len(s.queue) == 0 || s.stalled {
		s.processing = false
		return
	}
	s.processing = true
	req := s.queue[0]
	// Shift in place: re-slicing past the head would make the next append
	// reallocate.
	s.queue = append(s.queue[:0], s.queue[1:]...)

	if s.coord != nil {
		now := s.sim.Now()
		if peer, depth, ok := s.deferVerdict(now, req); ok {
			// Downstream backpressure: hold the vehicle short of the line
			// instead of granting it into a saturated segment. The hold is
			// an O(1) table lookup — no scheduler invocation, no modeled
			// computation delay — so the server immediately serves the next
			// request.
			s.coord.defers[req.VehicleID]++
			resp := s.sched.(CoordDeferrer).DeferResponse(req)
			resp.Seq = req.Seq
			if s.trace != nil {
				s.trace.Emit(trace.Event{
					Kind: trace.KindIMDefer, T: now, Node: s.node,
					Vehicle: req.VehicleID, Seq: req.Seq,
					Detail: "backpressure", To: peer.Endpoint, Value: float64(depth),
				})
			}
			s.net.Send(network.Message{
				Kind:    network.KindResponse,
				From:    s.endpoint,
				To:      s.vehicleAddr(req.VehicleID),
				Payload: resp,
			})
			s.processNext()
			return
		}
		delete(s.coord.defers, req.VehicleID)
		// Green-wave offset: bias the arrival floor onto the tail of the
		// downstream node's granted flow.
		req.MinArrival = s.greenFloor(now, req)
	}

	start := time.Now()
	resp, cost := s.sched.HandleRequest(s.sim.Now(), req)
	wall := time.Since(start)
	resp.Seq = req.Seq
	if cost < 0 {
		cost = 0
	}
	if s.col != nil {
		s.col.SchedulerInvocations++
		s.col.SchedulerWall += wall
		s.col.SchedulerSimDelay += cost
	}
	kind := network.KindResponse
	switch resp.Kind {
	case RespAccept:
		kind = network.KindAccept
	case RespReject:
		kind = network.KindReject
	}
	if s.trace != nil {
		ev := trace.Event{
			T: s.sim.Now(), Vehicle: req.VehicleID, Seq: req.Seq, Node: s.node,
			Detail: resp.Kind.String(), WallNs: wall.Nanoseconds(),
		}
		switch {
		case resp.Kind == RespReject:
			ev.Kind = trace.KindIMReject
		case resp.Kind == RespVelocity && resp.TargetSpeed <= 0.01:
			ev.Kind = trace.KindIMStop
		case resp.Kind == RespVelocity:
			ev.Kind = trace.KindIMGrant
			ev.Value = resp.TargetSpeed
		default: // RespTimed, RespAccept
			ev.Kind = trace.KindIMGrant
			ev.Value = resp.ArriveAt
		}
		s.trace.Emit(ev)
	}
	// The reply leaves after the computation — later, if the policy holds
	// it (batch windows) — but the server frees up after the computation
	// alone.
	sendDelay := cost
	if d, ok := s.sched.(Deferred); ok {
		if rel := d.ReleaseAt(s.sim.Now(), req); rel > s.sim.Now()+sendDelay {
			sendDelay = rel - s.sim.Now()
		}
	}
	s.sendAfter(sendDelay, kind, req.VehicleID, resp)
	if p, ok := s.sched.(Pusher); ok {
		for _, push := range p.TakePushes() {
			push.Resp.Seq = 0 // unsolicited revision marker
			if s.col != nil {
				s.col.Revisions++
			}
			if s.trace != nil {
				s.trace.Emit(trace.Event{
					Kind: trace.KindIMRevision, T: s.sim.Now(), Node: s.node,
					Vehicle: push.VehicleID, Value: push.Resp.ArriveAt,
					Detail: push.Resp.Kind.String(),
				})
			}
			s.sendAfter(cost, network.KindResponse, push.VehicleID, push.Resp)
		}
	}
	s.sim.After(cost, s.next)
}

// reply is one response waiting out its delay before it is sent. run,
// bound once when the record is made, is the kernel event that sends it,
// so scheduling a pooled record allocates nothing.
type reply struct {
	s    *Server
	kind network.Kind
	to   string
	resp Response
	run  func()
}

// sendAfter sends resp to the vehicle after delay seconds.
func (s *Server) sendAfter(delay float64, kind network.Kind, vehicleID int64, resp Response) {
	var r *reply
	if k := len(s.replies); k > 0 {
		r = s.replies[k-1]
		s.replies = s.replies[:k-1]
	} else {
		r = &reply{s: s}
		r.run = r.send
	}
	r.kind, r.to, r.resp = kind, s.vehicleAddr(vehicleID), resp
	s.sim.After(delay, r.run)
}

// send returns the record to the pool and sends its response.
func (r *reply) send() {
	s, msg := r.s, network.Message{Kind: r.kind, From: r.s.endpoint, To: r.to, Payload: r.resp}
	s.replies = append(s.replies, r)
	s.net.Send(msg)
}

// vehicleAddr returns a vehicle's network address, built on first use.
func (s *Server) vehicleAddr(id int64) string {
	addr, ok := s.addrs[id]
	if !ok {
		addr = vehicleEndpoint(id)
		s.addrs[id] = addr
	}
	return addr
}

// vehicleEndpoint returns the network address of a vehicle.
func vehicleEndpoint(id int64) string {
	return "veh" + strconv.FormatInt(id, 10)
}

// VehicleEndpoint exposes the vehicle endpoint naming scheme so the vehicle
// package registers under the address the server replies to.
func VehicleEndpoint(id int64) string { return vehicleEndpoint(id) }
