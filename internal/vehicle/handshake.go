package vehicle

// The wire side of the agent: NTP-style sync exchanges, request composition
// and retransmission, response dispatch, and the acknowledged exit report.
// All transmissions target a.imAddr — the IM shard of the current route leg
// — except the exit report, which stays pinned to the node that was crossed.

import (
	"math"

	"crossroads/internal/im"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/timesync"
	"crossroads/internal/trace"
)

func (a *Agent) sendSync() {
	// A scheduled inter-sample send can fire after a duplicated or
	// retransmission-doubled response already completed the sync phase;
	// transmitting then would overwrite a.timeout — by now the *request*
	// retry timer — with a sync retry that can never fire, silencing the
	// agent permanently.
	if a.state != StateSync {
		return
	}
	a.net.Send(network.Message{
		Kind:    network.KindSyncRequest,
		From:    a.Endpoint(),
		To:      a.imAddr,
		Payload: im.SyncPayload{T1: a.Clock.Clock.Local(a.sim.Now())},
	})
	// Sync frames can be lost like any other; resend until answered.
	a.timeout.Cancel()
	left := a.syncLeft
	a.timeout = a.sim.After(a.cfg.ResponseTimeout, func() {
		if a.state == StateSync && a.syncLeft == left {
			a.Retries++
			a.sendSync()
		}
	})
}

// handle dispatches network deliveries.
func (a *Agent) handle(now float64, msg network.Message) {
	if msg.Kind == network.KindAck {
		// An IM confirmed an exit notification. The echoed timestamp pins
		// the ack to a specific leg's report: on a corridor, a late ack
		// from the previous node must not silence the current one.
		if p, ok := msg.Payload.(im.ExitPayload); ok && p.ExitTimestamp == a.exitStamp {
			a.exitAcked = true
			a.exitRetry.Cancel()
		}
		return
	}
	if a.state == StateDone {
		return
	}
	switch msg.Kind {
	case network.KindSyncResponse:
		// Replayed or late sync responses outside the sync phase must not
		// cancel the request retry timer or double-send requests.
		if a.state != StateSync {
			return
		}
		p, ok := msg.Payload.(im.SyncPayload)
		if !ok {
			return
		}
		a.Clock.AddSample(timesync.Sample{
			T1: p.T1, T2: p.T2, T3: p.T3,
			T4: a.Clock.Clock.Local(now),
		})
		a.timeout.Cancel()
		a.syncLeft--
		if a.syncLeft > 0 {
			a.sim.After(a.cfg.SyncInterval, a.sendSync)
			return
		}
		a.sendRequest(false)
	case network.KindResponse, network.KindAccept, network.KindReject:
		resp, ok := msg.Payload.(im.Response)
		if !ok {
			return
		}
		if resp.Seq == 0 {
			// An IM-initiated grant revision: applicable only while
			// following a timed command, and only from the IM currently
			// holding our reservation — a stale push from a node already
			// crossed must not rewrite the next leg's plan.
			if msg.From == a.imAddr &&
				resp.Kind == im.RespTimed && a.hasArrival && a.state == StateFollow &&
				a.cfg.Protocol == im.ProtocolTimed {
				a.applyTimedCommand(now, resp)
			}
			return
		}
		if resp.Seq != a.seq {
			return // stale
		}
		if a.state != StateRequest && a.state != StateFollow {
			return // unexpected
		}
		a.timeout.Cancel()
		a.handleResponse(now, resp)
	}
}

// sendRequest composes and transmits a crossing request per the active
// policy. retransmit marks timeout-triggered resends for retry accounting
// and doubles the backoff so a congested IM is not flooded.
func (a *Agent) sendRequest(retransmit bool) {
	if retransmit {
		a.Retries++
		if a.backoff <= 0 {
			a.backoff = a.cfg.ResponseTimeout
		}
		a.backoff = math.Min(a.backoff*2, a.cfg.MaxTimeout)
	} else {
		a.backoff = a.cfg.ResponseTimeout
	}
	a.seq++
	a.setState(StateRequest)
	a.confirmed = false
	now := a.sim.Now()
	a.lastRequest = now
	vc := a.Plant.MeasuredV()
	dt := math.Max(a.DistToEntry(), 0)
	tt := a.Clock.Now(now)

	req := im.Request{
		VehicleID: a.ID,
		Seq:       a.seq,
		Movement:  a.Movement.ID,
		Params:    a.Plant.Params,
	}
	switch a.cfg.Protocol {
	case im.ProtocolTimed:
		req.CurrentSpeed = vc
		req.DistToEntry = dt
		req.TransmitTime = tt
		req.Priority = a.cfg.Priority
	case im.ProtocolVelocity:
		req.CurrentSpeed = vc
		req.DistToEntry = dt
	case im.ProtocolQuery:
		if vc >= 0.15*a.Plant.Params.MaxSpeed {
			// Constant-speed proposal (Algorithm 6): TOA dictated by the
			// current speed.
			req.ProposedToA = tt + dt/vc
			req.CrossSpeed = vc
		} else {
			// Too slow to propose a held crossing — a crawl would occupy
			// the grid for tens of seconds. Propose a max-acceleration
			// launch instead, budgeting the round trip before it begins.
			eta, vArr, _ := kinematics.EarliestArrival(0, dt, vc, a.Plant.Params)
			req.ProposedToA = tt + a.cfg.WCRTD + eta
			req.CrossSpeed = math.Max(vArr, 0.1)
		}
		req.CurrentSpeed = vc
		req.DistToEntry = dt
	}
	a.net.Send(network.Message{
		Kind:    network.KindRequest,
		From:    a.Endpoint(),
		To:      a.imAddr,
		Payload: req,
	})
	a.timeout.Cancel()
	seq := a.seq
	a.timeout = a.sim.After(a.backoff, func() {
		if a.state == StateRequest && a.seq == seq {
			a.sendRequest(true)
		}
	})
}

// sendCommittedRequest reports a committed (cannot-stop) vehicle's true
// state to the IM without abandoning the current plan; the timed reply
// replaces the trajectory.
func (a *Agent) sendCommittedRequest() {
	a.Retries++
	a.seq++
	now := a.sim.Now()
	if a.cfg.Trace != nil {
		a.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindVehCommit, T: now, Vehicle: a.ID, Node: a.node,
			Seq: a.seq, Detail: "committed-rebook",
		})
	}
	a.lastRequest = now
	vc := a.Plant.MeasuredV()
	dt := math.Max(a.DistToEntry(), 0)
	tt := a.Clock.Now(now)
	req := im.Request{
		VehicleID:    a.ID,
		Seq:          a.seq,
		Movement:     a.Movement.ID,
		CurrentSpeed: vc,
		DistToEntry:  dt,
		TransmitTime: tt,
		Committed:    true,
		Priority:     a.cfg.Priority,
		Params:       a.Plant.Params,
	}
	if a.cfg.Protocol == im.ProtocolQuery {
		// Report the truthful (full-throttle) arrival from the current
		// state; the IM re-reserves it unconditionally.
		eta, vArr, _ := kinematics.EarliestArrival(0, dt, vc, a.Plant.Params)
		req.ProposedToA = tt + eta
		req.CrossSpeed = math.Max(vArr, 0.1)
	}
	a.net.Send(network.Message{
		Kind:    network.KindRequest,
		From:    a.Endpoint(),
		To:      a.imAddr,
		Payload: req,
	})
}

// sendConfirm re-submits the current AIM reservation verbatim; the IM
// releases and re-checks it against the latest grid. A reject means the
// window was invalidated — the vehicle is still stop-capable and retries.
func (a *Agent) sendConfirm() {
	a.seq++
	now := a.sim.Now()
	if a.cfg.Trace != nil {
		a.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindVehCommit, T: now, Vehicle: a.ID, Node: a.node,
			Seq: a.seq, Detail: "aim-confirm",
		})
	}
	a.lastRequest = now
	req := im.Request{
		VehicleID:    a.ID,
		Seq:          a.seq,
		Movement:     a.Movement.ID,
		CurrentSpeed: a.Plant.MeasuredV(),
		DistToEntry:  math.Max(a.DistToEntry(), 0),
		TransmitTime: a.Clock.Now(now),
		ProposedToA:  a.reservedToA,
		CrossSpeed:   a.reservedV,
		Params:       a.Plant.Params,
	}
	a.net.Send(network.Message{
		Kind:    network.KindRequest,
		From:    a.Endpoint(),
		To:      a.imAddr,
		Payload: req,
	})
}

// handleResponse consumes the IM's reply per policy.
func (a *Agent) handleResponse(now float64, resp im.Response) {
	switch a.cfg.Protocol {
	case im.ProtocolVelocity:
		if resp.Kind != im.RespVelocity {
			return
		}
		if resp.TargetSpeed <= 0.01 {
			// The IM cannot schedule a held velocity this late: stop
			// (the safe-stop guard brings us to the line) and retry.
			a.stopAndRetry()
			return
		}
		// Algorithm 2: adopt VT immediately and maintain until exit. The
		// profile spans through the box so a ramp that is still running at
		// the entry finishes inside, exactly as the IM booked it.
		s := a.Plant.MeasuredS()
		dist := math.Max(a.Movement.ExitS+a.Plant.Params.Length-s, 0.01)
		a.profile = kinematics.RampHoldProfile(now, dist, a.Plant.MeasuredV(), resp.TargetSpeed, a.Plant.Params)
		a.originS = s
		a.hasProfile = true
		a.setState(StateFollow)
	case im.ProtocolTimed:
		if resp.Kind == im.RespVelocity && resp.TargetSpeed <= 0.01 {
			// Degenerate-request stop command.
			a.stopAndRetry()
			return
		}
		if resp.Kind != im.RespTimed {
			return
		}
		a.applyTimedCommand(now, resp)
	case im.ProtocolQuery:
		switch resp.Kind {
		case im.RespAccept:
			a.applyAIMAccept(now, resp)
		case im.RespReject:
			// Algorithm 6: slow down and re-propose after the interval.
			a.hasProfile = false
			a.holdSpeed = math.Max(a.Plant.MeasuredV()*a.cfg.SlowdownFactor, 0)
			a.setState(StateHold)
			a.retry.Cancel()
			a.retry = a.sim.After(a.cfg.RetryInterval, func() {
				if a.state == StateHold {
					a.Retries++
					a.sendRequest(false)
				}
			})
		}
	}
}

// sendExit transmits the exit timestamp and keeps retransmitting until the
// IM acknowledges — a lost exit would leave the lane FIFO waiting on a
// ghost forever. The destination and timestamp were latched at NotifyExit,
// so the loop keeps addressing the crossed node even after BeginLeg has
// retargeted the agent at the next one. Retransmissions back off
// exponentially like sendRequest's (capped at MaxTimeout): a stalled IM
// must not be flooded with exit reports it cannot acknowledge.
func (a *Agent) sendExit() {
	if a.exitAcked {
		return
	}
	a.net.Send(network.Message{
		Kind: network.KindExit,
		From: a.Endpoint(),
		To:   a.exitAddr,
		Payload: im.ExitPayload{
			VehicleID:     a.ID,
			ExitTimestamp: a.exitStamp,
		},
	})
	if a.exitBackoff <= 0 {
		a.exitBackoff = a.cfg.ResponseTimeout
	} else {
		a.exitBackoff = math.Min(a.exitBackoff*2, a.cfg.MaxTimeout)
	}
	a.exitRetry.Cancel()
	a.exitRetry = a.sim.After(a.exitBackoff, a.sendExit)
}
