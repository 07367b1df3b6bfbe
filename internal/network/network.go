// Package network simulates the shared messaging plane of the testbed.
// Historically this was the V2I star — the 2.4 GHz serial links between
// vehicles and the intersection manager — but endpoints are uniform: any
// named endpoint can message any other, so IM↔IM peer links (the link-state
// digests of the coordination plane) ride the same medium with the same
// delay model, loss coins, fault injection, and trace treatment as vehicle
// traffic. Links deliver messages after a sampled latency, can drop them,
// and keep per-endpoint traffic statistics so the experiment harnesses can
// reproduce the paper's network-load comparison (AIM generates up to ~20x
// the traffic of Crossroads/VT-IM due to its reject/re-request loop).
package network

import (
	"fmt"
	"math"
	"math/rand"

	"crossroads/internal/des"
	"crossroads/internal/trace"
)

// Kind enumerates the protocol message types used by the three IM designs
// (paper Chapters 2, 4, 5, 6).
type Kind int

const (
	// KindRegister announces a vehicle to the IM at the transmission line.
	KindRegister Kind = iota
	// KindSyncRequest and KindSyncResponse carry an NTP exchange.
	KindSyncRequest
	KindSyncResponse
	// KindRequest is a crossing request (VT-IM/Crossroads: VC, DT,
	// VehicleInfo, and for Crossroads the transmit timestamp TT; AIM: the
	// proposed TOA and VC).
	KindRequest
	// KindResponse is a VT-IM/Crossroads reply (VT, or TE/ToA/VT).
	KindResponse
	// KindAccept and KindReject are AIM's yes/no replies.
	KindAccept
	KindReject
	// KindExit is the exit-timestamp notification used for wait-time
	// accounting.
	KindExit
	// KindAck acknowledges receipt; used for network-delay measurement.
	KindAck
	// KindDigest is an IM↔IM link-state digest: per-approach queue depth
	// and granted-flow horizon, broadcast periodically to neighbor IMs by
	// the coordination plane.
	KindDigest
)

var kindNames = map[Kind]string{
	KindRegister:     "register",
	KindSyncRequest:  "sync-req",
	KindSyncResponse: "sync-resp",
	KindRequest:      "request",
	KindResponse:     "response",
	KindAccept:       "accept",
	KindReject:       "reject",
	KindExit:         "exit",
	KindAck:          "ack",
	KindDigest:       "digest",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// WireSize returns the modeled on-air payload size in bytes for a message
// kind, approximating the testbed's packet formats (VehicleInfo carries
// nine fields plus kinematic state; replies are small).
func (k Kind) WireSize() int {
	switch k {
	case KindRegister:
		return 16
	case KindSyncRequest, KindSyncResponse:
		return 24
	case KindRequest:
		return 64 // VC, DT, TT + VehicleInfo packet
	case KindResponse:
		return 32 // VT (+ TE, ToA for Crossroads)
	case KindAccept, KindReject:
		return 8
	case KindExit:
		return 16
	case KindAck:
		return 8
	case KindDigest:
		return 48 // node, seq, emission time + 4x (queue depth, flow horizon)
	default:
		return 16
	}
}

// Message is one V2I datagram.
type Message struct {
	Kind    Kind
	From    string
	To      string
	SentAt  float64 // reference time the sender handed it to the radio
	Payload any
}

// DelayModel samples one-way link latencies.
type DelayModel interface {
	// Sample returns a nonnegative latency in seconds.
	Sample(rng *rand.Rand) float64
	// Worst returns the model's worst-case latency (used to bound
	// WC-RTD when configuring protocols).
	Worst() float64
}

// ConstantDelay always returns D.
type ConstantDelay struct{ D float64 }

// Sample returns the constant latency.
func (c ConstantDelay) Sample(*rand.Rand) float64 { return c.D }

// Worst returns the constant latency.
func (c ConstantDelay) Worst() float64 { return c.D }

// UniformDelay samples uniformly in [Min, Max].
type UniformDelay struct{ Min, Max float64 }

// Sample returns a latency uniform in [Min, Max].
func (u UniformDelay) Sample(rng *rand.Rand) float64 {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Float64()*(u.Max-u.Min)
}

// Worst returns Max.
func (u UniformDelay) Worst() float64 { return u.Max }

// TruncNormalDelay samples a normal(Mean, Std) latency truncated to
// [Min, Max]. It models a radio whose typical latency sits well below its
// rare worst case — the shape measured on the testbed's NRF24 links.
type TruncNormalDelay struct {
	Mean, Std float64
	Min, Max  float64
}

// Sample returns a truncated-normal latency.
func (n TruncNormalDelay) Sample(rng *rand.Rand) float64 {
	for i := 0; i < 64; i++ {
		v := rng.NormFloat64()*n.Std + n.Mean
		if v >= n.Min && v <= n.Max {
			return v
		}
	}
	return math.Max(n.Min, math.Min(n.Mean, n.Max))
}

// Worst returns Max.
func (n TruncNormalDelay) Worst() float64 { return n.Max }

// TestbedDelay returns the delay model matching the paper's measurements:
// worst observed one-way network delay 15 ms with a typical latency of a
// few milliseconds.
func TestbedDelay() DelayModel {
	return TruncNormalDelay{Mean: 0.004, Std: 0.003, Min: 0.0005, Max: 0.015}
}

// Stats aggregates traffic counters for an endpoint or a whole network.
// For a finished run Sent + Duplicated == Delivered + Dropped +
// Undeliverable + the messages still in flight when the simulation was cut
// off (Duplicated counts the extra fault-injected copies, each of which is
// delivered, dropped, or undeliverable like an original).
type Stats struct {
	Sent int
	// Delivered counts messages whose destination handler ran; it is
	// decided at delivery time, not send time.
	Delivered int
	// Dropped counts radio losses (the loss-probability coin) and
	// fault-injected drops (burst windows, partitions).
	Dropped int
	// Undeliverable counts messages whose destination had no registered
	// handler at delivery time (e.g. a vehicle that despawned while the
	// message was in flight). They carry no delay statistics.
	Undeliverable int
	// Duplicated counts extra message copies injected by a duplication
	// fault window.
	Duplicated int
	Bytes      int
	TotalDelay float64
	MaxDelay   float64
}

// send records a message handed to the radio.
func (s *Stats) send(bytes int) {
	s.Sent++
	s.Bytes += bytes
}

// deliver records a completed delivery with its sampled latency.
func (s *Stats) deliver(delay float64) {
	s.Delivered++
	s.TotalDelay += delay
	if delay > s.MaxDelay {
		s.MaxDelay = delay
	}
}

// MeanDelay returns the average delivery latency, or 0 with no deliveries.
func (s Stats) MeanDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.TotalDelay / float64(s.Delivered)
}

// Handler consumes a delivered message at reference delivery time.
type Handler func(now float64, msg Message)

// Verdict is a fault injector's judgement on one message.
type Verdict struct {
	// Drop discards the message before the radio (partition or burst
	// loss); Reason labels the resulting msg.loss trace event.
	Drop   bool
	Reason string
	// ExtraDelay adds one-way latency on top of the sampled delay (s).
	ExtraDelay float64
	// Duplicate delivers a second copy DupDelay seconds after the
	// original would have arrived.
	Duplicate bool
	DupDelay  float64
}

// Injector inspects every message handed to the radio and may drop, delay,
// or duplicate it. Implementations own their RNG: injector draws must not
// perturb the network's delay or loss streams, so a faulted run stays
// sample-for-sample comparable to its clean twin. OnSend is called for
// every send, including messages the radio-loss coin discards anyway, so
// stateful fault models (burst chains) advance identically regardless of
// the configured loss probability.
type Injector interface {
	OnSend(now float64, msg Message) Verdict
}

// Router forwards messages whose destination endpoint is not registered on
// this network. The sharded server runs one Network per shard and installs a
// router that carries IM-to-IM traffic to the owning shard. Route returns
// true when it accepted the message — this network then charges nothing
// further for it; the routed copy is delivered (and counted) by the
// destination network via DeliverRouted.
//
// Accounting contract (pinned by TestRouterAccountingSides): the source
// network counts only Sent/Bytes for a routed message. Delivery outcome —
// Delivered, or Undeliverable when the endpoint is gone by arrival — is
// charged to the DESTINATION network, under the original sender's
// per-endpoint stats there. A routed message never lands in the source
// network's Delivered or Undeliverable, so summing per-shard Stats counts
// each message's outcome exactly once.
type Router interface {
	Route(msg Message, detail string) bool
}

// Network is a star topology: every endpoint exchanges messages through the
// shared medium with the given delay model and loss probability.
type Network struct {
	sim      *des.Simulator
	rng      *rand.Rand // delay samples
	lossRNG  *rand.Rand // radio-loss coins (separate stream: see Send)
	delay    DelayModel
	lossProb float64
	injector Injector
	router   Router

	handlers map[string]Handler
	total    Stats
	perEP    map[string]*Stats // keyed by sender
	perKind  map[Kind]int
	trace    *trace.Recorder
}

// SetTrace attaches an event recorder to the message lifecycle (send,
// loss, deliver, undeliverable-drop). nil detaches it.
func (n *Network) SetTrace(rec *trace.Recorder) { n.trace = rec }

// SetInjector attaches a fault injector to the Send path. nil detaches it.
func (n *Network) SetInjector(inj Injector) { n.injector = inj }

// SetRouter attaches a cross-network router consulted when a message's
// destination has no handler here. nil detaches it.
func (n *Network) SetRouter(r Router) { n.router = r }

// New creates a network on the given simulator. delay must not be nil.
// lossRNG feeds the loss coins and must be a stream independent of rng so
// that enabling loss never shifts the delay samples; it may be nil when
// lossProb is 0.
func New(sim *des.Simulator, rng, lossRNG *rand.Rand, delay DelayModel, lossProb float64) *Network {
	if delay == nil {
		panic("network: nil delay model")
	}
	if lossProb < 0 || lossProb >= 1 {
		panic(fmt.Sprintf("network: loss probability %v out of [0,1)", lossProb))
	}
	if lossProb > 0 && lossRNG == nil {
		panic("network: loss probability set without a loss RNG stream")
	}
	return &Network{
		sim:      sim,
		rng:      rng,
		lossRNG:  lossRNG,
		delay:    delay,
		lossProb: lossProb,
		handlers: make(map[string]Handler),
		perEP:    make(map[string]*Stats),
		perKind:  make(map[Kind]int),
	}
}

// Register attaches a named endpoint. Re-registering replaces the handler
// (vehicles re-attach on every approach in multi-pass scenarios).
func (n *Network) Register(name string, h Handler) {
	if h == nil {
		panic("network: nil handler for " + name)
	}
	n.handlers[name] = h
}

// Unregister detaches an endpoint; in-flight messages to it are dropped at
// delivery time.
func (n *Network) Unregister(name string) { delete(n.handlers, name) }

// Send queues msg for delivery after a sampled latency. The message's
// SentAt is stamped with the current simulation time. It returns the
// sampled latency (or -1 if the message was lost), which tests use to
// assert delay bounds.
//
// Whether a message is Delivered is decided at delivery time: if the
// destination has no registered handler when the latency elapses, the
// message counts as Undeliverable — not as Delivered, and without
// polluting the delay statistics.
func (n *Network) Send(msg Message) float64 {
	msg.SentAt = n.sim.Now()
	n.perKind[msg.Kind]++
	st := n.perEP[msg.From]
	if st == nil {
		st = &Stats{}
		n.perEP[msg.From] = st
	}
	size := msg.Kind.WireSize()
	st.send(size)
	n.total.send(size)
	if n.trace != nil {
		n.trace.Emit(trace.Event{
			Kind: trace.KindMsgSend, T: msg.SentAt,
			MsgKind: msg.Kind.String(), From: msg.From, To: msg.To, Bytes: size,
		})
	}
	// The delay sample is drawn unconditionally and the loss coin comes
	// from its own stream: enabling loss (or a fault schedule) must never
	// shift the delay sequence, or lossy runs stop being comparable to
	// their lossless twins. The injector is likewise consulted on every
	// send so stateful fault models advance the same way in every variant.
	d := n.delay.Sample(n.rng)
	if d < 0 {
		d = 0
	}
	lost := n.lossProb > 0 && n.lossRNG.Float64() < n.lossProb
	var v Verdict
	if n.injector != nil {
		v = n.injector.OnSend(msg.SentAt, msg)
	}
	if lost || v.Drop {
		st.Dropped++
		n.total.Dropped++
		if n.trace != nil {
			detail := ""
			if !lost {
				detail = v.Reason
			}
			n.trace.Emit(trace.Event{
				Kind: trace.KindMsgLoss, T: msg.SentAt,
				MsgKind: msg.Kind.String(), From: msg.From, To: msg.To,
				Detail: detail,
			})
		}
		return -1
	}
	if v.ExtraDelay > 0 {
		d += v.ExtraDelay
	}
	n.deliverAfter(msg, st, d, "")
	if v.Duplicate {
		st.Duplicated++
		n.total.Duplicated++
		dup := d + math.Max(v.DupDelay, 0)
		n.deliverAfter(msg, st, dup, "dup")
	}
	return d
}

// deliverAfter schedules one delivery attempt of msg after delay seconds,
// charging the outcome to the sender's stats. detail labels fault-injected
// duplicate copies in the trace.
func (n *Network) deliverAfter(msg Message, st *Stats, delay float64, detail string) {
	n.sim.After(delay, func() { n.deliverNow(msg, st, delay, detail) })
}

// deliverNow resolves one delivery attempt at the current simulation time:
// handler present → deliver; absent → hand to the router (if any accepts);
// otherwise the message is undeliverable. delay is the latency charged to
// the delivery statistics.
func (n *Network) deliverNow(msg Message, st *Stats, delay float64, detail string) {
	h, ok := n.handlers[msg.To]
	if !ok {
		if n.router != nil && n.router.Route(msg, detail) {
			return
		}
		st.Undeliverable++
		n.total.Undeliverable++
		if n.trace != nil {
			n.trace.Emit(trace.Event{
				Kind: trace.KindMsgDrop, T: n.sim.Now(),
				MsgKind: msg.Kind.String(), From: msg.From, To: msg.To,
				Detail: detail,
			})
		}
		return
	}
	st.deliver(delay)
	n.total.deliver(delay)
	if n.trace != nil {
		n.trace.Emit(trace.Event{
			Kind: trace.KindMsgDeliver, T: n.sim.Now(),
			MsgKind: msg.Kind.String(), From: msg.From, To: msg.To, Latency: delay,
			Detail: detail,
		})
	}
	h(n.sim.Now(), msg)
}

// DeliverRouted delivers a message routed in from another network at the
// current simulation time, charging this network's statistics with the
// end-to-end latency now - SentAt (which includes the hand-off between
// networks). A destination missing here falls through to this network's own
// router, or counts as undeliverable here.
func (n *Network) DeliverRouted(msg Message, detail string) {
	st := n.perEP[msg.From]
	if st == nil {
		st = &Stats{}
		n.perEP[msg.From] = st
	}
	delay := n.sim.Now() - msg.SentAt
	if delay < 0 {
		delay = 0
	}
	n.deliverNow(msg, st, delay, detail)
}

// WorstDelay returns the delay model's worst one-way latency.
func (n *Network) WorstDelay() float64 { return n.delay.Worst() }

// TotalStats returns aggregate traffic counters.
func (n *Network) TotalStats() Stats { return n.total }

// EndpointStats returns the traffic sent by one endpoint.
func (n *Network) EndpointStats(name string) Stats {
	if s, ok := n.perEP[name]; ok {
		return *s
	}
	return Stats{}
}

// KindCount returns how many messages of kind k have been sent.
func (n *Network) KindCount(k Kind) int { return n.perKind[k] }

// MessageCount returns the total number of messages sent.
func (n *Network) MessageCount() int { return n.total.Sent }
