// Package vehicle implements the vehicle-side protocol state machine of the
// paper's Chapter 2: Arriving -> Sync -> Request -> Follow, with the
// retransmit and safe-stop clauses of Algorithms 2, 6, and 8. One Agent type
// speaks all three wire protocols (VT-IM's held velocity, AIM's yes/no
// query, Crossroads' timed command), selected by Config.Protocol. The
// protocol comes from the policy's registry entry (im.PolicyEntry), so a
// policy registered out of tree runs in the simulator and the sweeps like a
// built-in.
//
// The implementation is split by concern:
//
//   - agent.go: the state enum, configuration, the Agent type, and its
//     lifecycle (Start, BeginLeg, NotifyExit, Stop).
//   - handshake.go: the wire protocol — sync exchanges, request
//     composition and retransmission, response handling, exit reporting.
//   - actuation.go: trajectory planning and the per-tick longitudinal
//     controller (ControlStep), including the safe-stop and car-following
//     envelopes.
//
// An agent is not bound to a single intersection: on a multi-node topology
// the world calls BeginLeg after each crossing, re-entering the approach
// state machine for the next IM shard on the route. The synchronized clock
// carries over (every IM serves the same reference time), so only the first
// leg pays the sync phase; each subsequent IM still receives a fresh
// time-stamped request.
package vehicle

import (
	"fmt"
	"math"

	"crossroads/internal/des"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/plant"
	"crossroads/internal/safety"
	"crossroads/internal/timesync"
	"crossroads/internal/trace"
)

// ParsePolicy checks that name is a registered policy and returns it. It
// remains for the benchmark harness (crbench), which parses its workload's
// policy here and passes the result to sim.WithPolicy.
func ParsePolicy(name string) (string, error) {
	if _, err := im.LookupPolicy(name); err != nil {
		return "", err
	}
	return name, nil
}

// State is the protocol state (paper Chapter 2 state machine).
type State int

// Protocol states. StateHold is AIM's between-retries coast.
const (
	StateSync State = iota
	StateRequest
	StateFollow
	StateHold
	StateDone
)

func (s State) String() string {
	switch s {
	case StateSync:
		return "sync"
	case StateRequest:
		return "request"
	case StateFollow:
		return "follow"
	case StateHold:
		return "hold"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes the agent's protocol behavior.
type Config struct {
	// Protocol is the wire protocol spoken, from the policy's registry
	// entry.
	Protocol im.Protocol
	// WCRTD is the worst-case round-trip-delay bound the protocol was
	// provisioned with (the Crossroads TE offset and the response
	// timeout basis).
	WCRTD float64
	// ResponseTimeout triggers a retransmission; 0 defaults to WCRTD.
	ResponseTimeout float64
	// NumSyncExchanges is how many NTP rounds run before the first
	// request.
	NumSyncExchanges int
	// SyncInterval spaces the NTP exchanges (s).
	SyncInterval float64
	// RetryInterval is AIM's pause between a rejection and the next
	// proposal (s).
	RetryInterval float64
	// SlowdownFactor scales AIM's held speed after each rejection.
	SlowdownFactor float64
	// ControlGain is the position-servo gain (1/s).
	ControlGain float64
	// MinGap is the standstill car-following gap (m).
	MinGap float64
	// ReRequestLag is how far behind plan (m) the vehicle falls before it
	// re-requests a slot.
	ReRequestLag float64
	// ReRequestMinInterval rate-limits re-requests (s).
	ReRequestMinInterval float64
	// StopLineOffset is how far before the box entry the front bumper
	// stops when no permission has been granted (m).
	StopLineOffset float64
	// CommandLatency is how long after transmission a granted command
	// takes effect (TE - TT): the WC-RTD, plus the policy's reply hold
	// (batch's window). Stop-capability is judged at the execution position, not
	// the current one.
	CommandLatency float64
	// HeadwayTau is the car-following reaction-time margin (s): the
	// follower keeps an extra v*HeadwayTau of clearance so the critical
	// braking curve is never ridden with zero margin.
	HeadwayTau float64
	// MaxTimeout caps the exponential retransmission backoff (s).
	MaxTimeout float64
	// GrantTTL, when positive, arms the grant-expiry failsafe: a vehicle
	// still on the approach whose granted arrival time has passed by more
	// than GrantTTL (the grant could not be honored — e.g. every
	// renegotiation was lost to a partition) abandons the plan and
	// decelerates to a failsafe stop before the transmission line,
	// re-requesting from rest. 0 disables the check, so clean runs are
	// bit-identical with the failsafe unarmed; fault-injected worlds arm
	// it.
	GrantTTL float64
	// IMEndpoint is the network address of the IM serving the vehicle's
	// first leg; empty means the classic single-intersection address
	// (im.EndpointName). BeginLeg retargets it per node.
	IMEndpoint string
	// Node tags the agent's trace events with the topology node it is
	// currently negotiating with (0 for single-intersection runs).
	Node int
	// Priority is the vehicle's declared priority class, carried on timed
	// requests for the auction policy (0 = regular traffic).
	Priority int
	// Trace receives protocol state transitions and commit-point events;
	// nil disables agent tracing.
	Trace *trace.Recorder
}

// DeriveConfig returns the protocol parameters for a deployment: gaps and
// stop offsets follow the vehicle size, the re-request threshold follows
// the sensing buffer (the lag a plan may accumulate before it threatens the
// safety contract), and the RTD bound comes from the spec. hold is how long
// the IM may hold a reply (the policy's registry entry); the response
// timeout and the command latency budget for it.
func DeriveConfig(protocol im.Protocol, hold float64, spec safety.Spec, params kinematics.Params) Config {
	cfg := Config{
		Protocol:             protocol,
		WCRTD:                spec.WorstRTD,
		NumSyncExchanges:     4,
		SyncInterval:         0.02,
		RetryInterval:        0.35,
		SlowdownFactor:       0.75,
		ControlGain:          2.0,
		MinGap:               math.Max(0.15, 0.25*params.Length),
		ReRequestLag:         math.Max(0.05, 0.75*spec.SensingBuffer()),
		ReRequestMinInterval: 0.50,
		// The stop line sits behind the conflict-zone lip: a waiting
		// vehicle's buffered nose must clear a crossing movement's buffered
		// corridor (half the corridor width plus both buffers plus slack).
		StopLineOffset: params.Width/2 + 2*spec.SensingBuffer() + 0.05,
		CommandLatency: spec.WorstRTD,
		HeadwayTau:     0.25,
		MaxTimeout:     2.0,
	}
	if hold > 0 {
		cfg.ResponseTimeout = hold + spec.WorstRTD + 0.05
		cfg.CommandLatency = hold + spec.WorstRTD
	}
	return cfg
}

// LeaderInfo describes the vehicle ahead in the same lane corridor.
type LeaderInfo struct {
	// Gap is front-bumper to rear-bumper (m).
	Gap float64
	// Speed and Decel are the leader's speed and braking capability.
	Speed, Decel float64
	// Merge marks an in-box exit-lane leader: the reservation system
	// already guarantees separation there, so only catching a slower
	// vehicle must be prevented — assuming the leader might emergency-
	// brake would wrongly slow the follower off its own reservation.
	Merge bool
}

// LeaderFunc reports the nearest leader, if any. The world provides it; the
// agent uses it for collision-free car following.
type LeaderFunc func() (LeaderInfo, bool)

// Agent is one vehicle's protocol brain and longitudinal controller.
type Agent struct {
	ID       int64
	Movement *intersection.Movement
	Plant    *plant.Plant
	Clock    *timesync.SyncedClock

	cfg    Config
	sim    *des.Simulator
	net    *network.Network
	leader LeaderFunc

	// imAddr and node identify the IM shard of the current leg.
	imAddr string
	node   int

	state     State
	syncLeft  int
	seq       int
	holdSpeed float64 // speed held while not following a plan

	hasProfile bool
	profile    kinematics.Profile
	originS    float64 // plant arc length where the profile's distance 0 sits

	lastRequest float64
	timeout     des.Handle
	retry       des.Handle
	backoff     float64 // current retransmission timeout

	// tArriveRef is the granted arrival time in reference coordinates;
	// hasArrival marks Crossroads grants that may be re-planned en route.
	tArriveRef float64
	hasArrival bool
	lastPlan   float64
	// confirmed marks an AIM reservation re-validated at the commitment
	// point (a truthful late re-proposal by someone else may have landed
	// inside our window since the original accept).
	confirmed   bool
	reservedToA float64
	reservedV   float64

	// Retries counts retransmissions and AIM re-proposals, accumulated
	// over every leg of the route.
	Retries int
	// Failsafes counts failsafe events (grant expiry, standing at the
	// line with no grant) over the vehicle's whole route.
	Failsafes int
	// noGrantHalt latches the no-grant failsafe event for the current
	// halt episode (GrantTTL runs only).
	noGrantHalt bool
	// Exit bookkeeping for the current (or most recent) leg. exitAddr and
	// exitStamp pin the pending exit notification to the IM that owns it,
	// so retransmissions to a previous node survive a leg transition and a
	// late acknowledgement cannot be confused with the next leg's exit.
	exited      bool
	exitAcked   bool
	exitAddr    string
	exitStamp   float64
	exitRetry   des.Handle
	exitBackoff float64 // current exit-retransmission timeout
}

// New wires an agent to its plant, clock, and network. leader may be nil
// (no car-following).
func New(id int64, m *intersection.Movement, pl *plant.Plant, clk *timesync.SyncedClock,
	cfg Config, sim *des.Simulator, net *network.Network, leader LeaderFunc) (*Agent, error) {
	if m == nil || pl == nil || clk == nil || sim == nil || net == nil {
		return nil, fmt.Errorf("vehicle: nil dependency")
	}
	if cfg.ResponseTimeout <= 0 {
		cfg.ResponseTimeout = cfg.WCRTD
	}
	if cfg.NumSyncExchanges < 1 {
		cfg.NumSyncExchanges = 1
	}
	if cfg.IMEndpoint == "" {
		cfg.IMEndpoint = im.EndpointName
	}
	if cfg.MaxTimeout < cfg.ResponseTimeout {
		// A cap below the base timeout would silently shrink, not grow,
		// the retransmission backoff.
		cfg.MaxTimeout = cfg.ResponseTimeout
	}
	if leader == nil {
		leader = func() (LeaderInfo, bool) { return LeaderInfo{}, false }
	}
	a := &Agent{
		ID:       id,
		Movement: m,
		Plant:    pl,
		Clock:    clk,
		cfg:      cfg,
		sim:      sim,
		net:      net,
		leader:   leader,
		imAddr:   cfg.IMEndpoint,
		node:     cfg.Node,
		state:    StateSync,
	}
	return a, nil
}

// Endpoint returns the agent's network address.
func (a *Agent) Endpoint() string { return im.VehicleEndpoint(a.ID) }

// State returns the current protocol state.
func (a *Agent) State() State { return a.state }

// Node returns the topology node of the agent's current leg.
func (a *Agent) Node() int { return a.node }

// setState transitions the protocol state machine, tracing the edge.
// Self-transitions (retransmissions re-entering StateRequest, repeated
// holds) are real protocol events and are traced too.
func (a *Agent) setState(next State) {
	if a.cfg.Trace != nil {
		a.cfg.Trace.Emit(trace.Event{
			Kind: trace.KindVehState, T: a.sim.Now(), Vehicle: a.ID, Node: a.node,
			Detail: a.state.String() + "->" + next.String(),
		})
	}
	a.state = next
}

// Start registers the agent on the network and begins the sync phase.
func (a *Agent) Start() {
	a.holdSpeed = a.Plant.V()
	a.syncLeft = a.cfg.NumSyncExchanges
	a.net.Register(a.Endpoint(), a.handle)
	a.net.Send(network.Message{
		Kind: network.KindRegister,
		From: a.Endpoint(),
		To:   a.imAddr,
	})
	a.sendSync()
}

// BeginLeg re-enters the approach state machine for the next intersection
// on the vehicle's route: rebind to the node's movement geometry, the new
// road segment's plant, and the node's IM shard, then announce and request
// a slot. The synchronized clock carries over — every IM stamps T2/T3 from
// the same reference clock, so the offset estimate from the first leg's
// sync phase stays valid — and the agent issues a fresh time-stamped
// request to the new IM immediately. A still-unacknowledged exit
// notification to the previous node keeps retransmitting untouched.
func (a *Agent) BeginLeg(m *intersection.Movement, pl *plant.Plant, imEndpoint string, node int) {
	a.Movement = m
	a.Plant = pl
	a.imAddr = imEndpoint
	a.node = node
	a.timeout.Cancel()
	a.retry.Cancel()
	a.holdSpeed = pl.V()
	a.hasProfile = false
	a.hasArrival = false
	a.confirmed = false
	a.exited = false
	a.backoff = 0
	a.noGrantHalt = false
	a.net.Send(network.Message{
		Kind: network.KindRegister,
		From: a.Endpoint(),
		To:   a.imAddr,
	})
	a.sendRequest(false)
}

// NotifyExit is called by the world when the vehicle has fully cleared the
// box: send the exit timestamp (Chapter 2's wait-time accounting) and
// release protocol state. The notification is pinned to the current leg's
// IM so its retransmission loop survives a subsequent BeginLeg.
func (a *Agent) NotifyExit() {
	if a.exited {
		return
	}
	a.exited = true
	a.timeout.Cancel()
	a.retry.Cancel()
	a.setState(StateDone)
	a.exitAcked = false
	a.exitAddr = a.imAddr
	a.exitStamp = a.Clock.Now(a.sim.Now())
	a.exitBackoff = 0
	a.sendExit()
}

// Stop detaches the agent from the network (despawn).
func (a *Agent) Stop() {
	a.timeout.Cancel()
	a.retry.Cancel()
	a.exitRetry.Cancel()
	a.setState(StateDone)
	a.net.Unregister(a.Endpoint())
}
