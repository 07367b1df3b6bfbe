// Package trace is a zero-dependency structured event recorder for the
// simulation stack. Every layer of the runtime — the discrete-event kernel,
// the V2I network, the intersection manager, the vehicle agents, and the
// world harness — can emit typed events carrying simulated time, optional
// wall time, and entity identifiers. The paper's whole argument is about
// *when* things happen (RTD variability, execution times, grant revisions),
// so the recorder exists to make a run's full decision stream auditable:
// which message was sent when, with what sampled latency, which grants were
// issued, revised, or turned into stop commands, and when each vehicle
// crossed its commitment point.
//
// A recorder retains every event for JSONL export and keeps its summary
// counters as events arrive. A nil *Recorder is valid everywhere and
// compiles to a pointer test per call site, so un-traced runs pay
// near-zero overhead.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Event kinds. The string values are the JSONL schema's "kind" field; new
// kinds must be added to KnownKinds for ValidateJSONL to accept them.
const (
	// KindDESEvent is one executed discrete event (kernel firehose;
	// enabled separately because physics ticks dominate it).
	KindDESEvent = "des.event"

	// Message lifecycle: every Send emits msg.send; exactly one of
	// msg.loss (radio loss at send time), msg.deliver (handler invoked),
	// or msg.drop (destination unregistered at delivery time) follows,
	// unless the run ended with the message still in flight.
	KindMsgSend    = "msg.send"
	KindMsgDeliver = "msg.deliver"
	KindMsgLoss    = "msg.loss"
	KindMsgDrop    = "msg.drop"

	// KindSyncExchange is one NTP request answered by the IM.
	KindSyncExchange = "sync.exchange"

	// IM decision stream: a request entering service (with queue depth),
	// the grant/stop/reject verdicts, and unsolicited grant revisions.
	KindIMRequest  = "im.request"
	KindIMGrant    = "im.grant"
	KindIMStop     = "im.stop"
	KindIMReject   = "im.reject"
	KindIMRevision = "im.revision"

	// Reservation-book mutations. A placeholder booking (head-of-line
	// protection for a stopped vehicle) is a book.add with detail
	// "placeholder".
	KindBookAdd    = "book.add"
	KindBookRemove = "book.remove"
	KindBookPrune  = "book.prune"

	// Vehicle protocol events: state-machine transitions (detail
	// "old->new") and commitment points (the moment a vehicle can no
	// longer stop before the box and must report the truth).
	KindVehState  = "veh.state"
	KindVehCommit = "veh.commit"

	// World lifecycle: spawns, completed crossings, and safety-checker
	// detections (physical overlap / buffer-contract violation).
	KindSimSpawn     = "sim.spawn"
	KindSimExit      = "sim.exit"
	KindSimCollision = "sim.collision"
	KindSimBufViol   = "sim.bufviol"

	// KindSimHop is a vehicle re-entering the approach of the next
	// intersection on its route (multi-node topologies only; detail is the
	// movement, value the entry speed, node the downstream intersection).
	KindSimHop = "sim.hop"

	// Fault-injection lifecycle: a scripted fault window opening and
	// closing (detail names the fault kind, value is the window end /
	// start time respectively, node is set for IM stalls).
	KindFaultBegin = "fault.begin"
	KindFaultEnd   = "fault.end"

	// KindVehFailsafe is a vehicle abandoning its plan and decelerating to
	// a stop before the transmission line because its grant never arrived
	// or expired (detail: "grant-expired" or "no-grant").
	KindVehFailsafe = "veh.failsafe"

	// KindIMLease is an IM pruning the per-vehicle bookkeeping (lane FIFO,
	// seniority, stale booking) of a vehicle that went silent mid-handshake
	// (detail "expired"; value is the last-contact time).
	KindIMLease = "im.lease"

	// Wire-server connection lifecycle (serve mode): a client completing
	// the protocol handshake (detail is the remote address), a connection
	// closing (detail is the close reason), and a slow client being shed
	// because its bounded send queue overflowed (value is the queue
	// capacity). T is wall seconds since the server's epoch.
	KindConnOpen  = "conn.open"
	KindConnClose = "conn.close"
	KindConnShed  = "conn.shed"

	// KindServeDrain is the wire server starting its graceful drain:
	// listeners are closed, in-flight work is flushed, and every live
	// connection receives a Bye (value is the number of live connections).
	KindServeDrain = "serve.drain"

	// IM↔IM coordination plane. KindIMDigest is an IM receiving a
	// neighbor's link-state digest (node is the receiver, from the sender's
	// endpoint, value the digest emission time). KindIMDefer is an IM
	// holding a vehicle short of the line because the downstream digest
	// reports saturation (detail "backpressure", value the reported queue
	// depth, to the saturated neighbor's endpoint).
	KindIMDigest = "im.digest"
	KindIMDefer  = "im.defer"
)

// KnownKinds is the closed set of event kinds in the JSONL schema.
var KnownKinds = map[string]bool{
	KindDESEvent:     true,
	KindMsgSend:      true,
	KindMsgDeliver:   true,
	KindMsgLoss:      true,
	KindMsgDrop:      true,
	KindSyncExchange: true,
	KindIMRequest:    true,
	KindIMGrant:      true,
	KindIMStop:       true,
	KindIMReject:     true,
	KindIMRevision:   true,
	KindBookAdd:      true,
	KindBookRemove:   true,
	KindBookPrune:    true,
	KindVehState:     true,
	KindVehCommit:    true,
	KindSimSpawn:     true,
	KindSimExit:      true,
	KindSimCollision: true,
	KindSimBufViol:   true,
	KindSimHop:       true,
	KindFaultBegin:   true,
	KindFaultEnd:     true,
	KindVehFailsafe:  true,
	KindIMLease:      true,
	KindConnOpen:     true,
	KindConnClose:    true,
	KindConnShed:     true,
	KindServeDrain:   true,
	KindIMDigest:     true,
	KindIMDefer:      true,
}

// Event is one recorded occurrence. Only Kind and T are universal; the
// remaining fields are kind-specific and omitted from JSONL when zero.
type Event struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// T is the simulated time in seconds.
	T float64 `json:"t"`
	// WallNs is measured wall-clock cost in nanoseconds where the
	// emitting layer tracks it (DES handler execution, IM scheduling).
	// It is the one nondeterministic field: replay comparisons must
	// ignore it (see CanonicalizeWall).
	WallNs int64 `json:"wall_ns,omitempty"`
	// Vehicle is the subject vehicle ID, when the event concerns one.
	Vehicle int64 `json:"veh,omitempty"`
	// Node is the topology node (intersection shard) the event belongs
	// to. Single-intersection runs use node 0, which is omitted from
	// JSONL — their traces are byte-identical to the pre-topology schema.
	Node int `json:"node,omitempty"`
	// Other is a second vehicle ID (collision pairs, revision victims).
	Other int64 `json:"other,omitempty"`
	// MsgKind / From / To / Seq / Bytes describe a message event.
	MsgKind string `json:"msg_kind,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	// Latency is the sampled one-way delay of a message (s).
	Latency float64 `json:"latency,omitempty"`
	// Queue is the IM request-queue depth observed at intake (including
	// the request in service).
	Queue int `json:"queue,omitempty"`
	// Detail is a kind-specific discriminator: state transitions
	// ("sync->request"), decision kinds ("timed", "velocity"),
	// "placeholder" bookings, collision partners.
	Detail string `json:"detail,omitempty"`
	// Value is a kind-specific scalar: the granted arrival time for
	// timed/accept im.grant and im.revision events, the commanded speed
	// for velocity grants, the booked ToA for book.add, the entry speed
	// for sim.spawn, and the pruned-entry count for book.prune.
	Value float64 `json:"value,omitempty"`
	// Run labels the originating run when several runs share one JSONL
	// file (sweep cells); stamped at export time.
	Run string `json:"run,omitempty"`
}

// Recorder captures events from one simulation run. It is not safe for
// concurrent use: attach one recorder per simulation (parallel experiment
// cells each get their own; see sweep.Config).
//
// The zero pointer is the off switch: every method is safe to call on a
// nil *Recorder and does nothing, so instrumented code needs only a single
// pointer test — or no test at all — on the hot path.
type Recorder struct {
	// Now, when set, stamps events emitted with a zero T. The world
	// harness points it at the simulator clock so deep layers (the
	// reservation book) need no time plumbing of their own.
	Now func() float64

	buf     []Event
	byKind  map[string]int
	hist    Histogram
	queueHW int
}

// NewFull returns an unbounded recorder retaining every event.
func NewFull() *Recorder {
	return &Recorder{
		byKind: make(map[string]int),
		hist:   NewLatencyHistogram(),
	}
}

// Enabled reports whether events will be recorded (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event. If the recorder has a clock and ev.T is zero,
// the event is stamped with the current simulated time. Safe on nil.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	if ev.T == 0 && r.Now != nil {
		ev.T = r.Now()
	}
	r.byKind[ev.Kind]++
	if ev.Kind == KindMsgDeliver {
		r.hist.Observe(ev.Latency)
	}
	if ev.Kind == KindIMRequest && ev.Queue > r.queueHW {
		r.queueHW = ev.Queue
	}
	r.buf = append(r.buf, ev)
}

// Total returns how many events were emitted. Safe on nil.
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the recorded events in emission order. Safe on nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.buf))
	copy(out, r.buf)
	return out
}

// KindCount returns how many events of one kind were emitted. Safe on nil.
func (r *Recorder) KindCount(kind string) int {
	if r == nil {
		return 0
	}
	return r.byKind[kind]
}

// WriteJSONL writes the recorded events, one JSON object per line. A
// non-empty run label is stamped into every line's "run" field. Safe on
// nil (writes nothing).
func (r *Recorder) WriteJSONL(w io.Writer, run string) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.Events() {
		if run != "" {
			ev.Run = run
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLMulti writes several recorders' streams into one JSONL file,
// stamping each recorder's events with the matching run label. Recorders
// are written in slice order, so callers that order them deterministically
// (e.g. sweep cells) get byte-identical files for any worker count. nil
// recorders are skipped.
func WriteJSONLMulti(path string, recs []*Recorder, labels []string) error {
	if len(labels) != len(recs) {
		return fmt.Errorf("trace: %d labels for %d recorders", len(labels), len(recs))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, rec := range recs {
		if err := rec.WriteJSONL(f, labels[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Summary aggregates a run's event stream: how many events of each kind,
// the distribution of delivered message latencies, and the deepest the IM
// request queue ever got. It is computed incrementally as events arrive.
type Summary struct {
	Total int
	// ByKind maps event kind to count.
	ByKind map[string]int
	// Latency is the histogram of delivered message latencies.
	Latency Histogram
	// IMQueueHighWater is the deepest request queue observed at intake.
	IMQueueHighWater int
}

// Summary returns the aggregate view. Safe on nil (zero Summary).
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	byKind := make(map[string]int, len(r.byKind))
	for k, v := range r.byKind {
		byKind[k] = v
	}
	return Summary{
		Total:            len(r.buf),
		ByKind:           byKind,
		Latency:          r.hist.Clone(),
		IMQueueHighWater: r.queueHW,
	}
}

// Merge folds another summary into this one (sweeps combine per-cell
// recorders this way).
func (s *Summary) Merge(o Summary) {
	s.Total += o.Total
	if len(o.ByKind) > 0 && s.ByKind == nil {
		s.ByKind = make(map[string]int, len(o.ByKind))
	}
	for k, v := range o.ByKind {
		s.ByKind[k] += v
	}
	s.Latency.Merge(o.Latency)
	if o.IMQueueHighWater > s.IMQueueHighWater {
		s.IMQueueHighWater = o.IMQueueHighWater
	}
}

// String renders the summary as an aligned text block suitable for
// appending to the experiment binaries' metric tables.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, IM queue high-water %d\n", s.Total, s.IMQueueHighWater)
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	width := 0
	for _, k := range kinds {
		if len(k) > width {
			width = len(k)
		}
	}
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-*s  %d\n", width, k, s.ByKind[k])
	}
	if s.Latency.Total() > 0 {
		b.WriteString("  delivery latency histogram:\n")
		b.WriteString(s.Latency.Render("    "))
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram. Bounds are upper edges in
// seconds; the final implicit bucket is unbounded.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int     `json:"counts"`
}

// NewLatencyHistogram returns the schema's standard latency buckets
// (0.5 ms .. 64 ms, then overflow), matching the testbed's 15 ms
// worst-case one-way delay with headroom for batching windows.
func NewLatencyHistogram() Histogram {
	bounds := []float64{0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064}
	return Histogram{Bounds: bounds, Counts: make([]int, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if len(h.Counts) == 0 {
		*h = NewLatencyHistogram()
	}
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Total returns the number of observed samples.
func (h Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Clone returns a deep copy.
func (h Histogram) Clone() Histogram {
	out := Histogram{Bounds: append([]float64(nil), h.Bounds...)}
	out.Counts = append([]int(nil), h.Counts...)
	return out
}

// Merge adds another histogram's counts (bucket layouts must match; a
// zero-value receiver adopts the other's layout).
func (h *Histogram) Merge(o Histogram) {
	if len(o.Counts) == 0 {
		return
	}
	if len(h.Counts) == 0 {
		*h = o.Clone()
		return
	}
	if len(h.Counts) != len(o.Counts) {
		panic("trace: merging histograms with different bucket layouts")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
}

// Render formats the nonzero buckets, one per line, with the given indent.
func (h Histogram) Render(indent string) string {
	var b strings.Builder
	lo := 0.0
	for i, c := range h.Counts {
		var label string
		if i < len(h.Bounds) {
			label = fmt.Sprintf("%5.1f–%5.1f ms", lo*1000, h.Bounds[i]*1000)
			lo = h.Bounds[i]
		} else {
			label = fmt.Sprintf("%5.1f+ ms     ", lo*1000)
		}
		if c > 0 {
			fmt.Fprintf(&b, "%s%s  %d\n", indent, label, c)
		}
	}
	return b.String()
}

// CanonicalizeWall zeroes every event's WallNs in place and returns the
// slice. Wall time is the schema's one nondeterministic field; replay and
// determinism checks compare canonicalized streams.
func CanonicalizeWall(events []Event) []Event {
	for i := range events {
		events[i].WallNs = 0
	}
	return events
}

// ReadJSONL parses an event stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// ValidateJSONL checks an exported stream against the schema: every line
// must decode with no unknown fields, carry a known kind, a finite
// non-negative time, and the kind-specific required fields. It returns the
// number of valid events and a summary recomputed from the stream.
func ValidateJSONL(r io.Reader) (int, Summary, error) {
	sum := Summary{ByKind: make(map[string]int), Latency: NewLatencyHistogram()}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	n := 0
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return n, sum, nil
		} else if err != nil {
			return n, sum, fmt.Errorf("trace: event %d: %w", n+1, err)
		}
		n++
		if err := ev.Validate(); err != nil {
			return n, sum, fmt.Errorf("trace: event %d: %w", n, err)
		}
		sum.Total++
		sum.ByKind[ev.Kind]++
		if ev.Kind == KindMsgDeliver {
			sum.Latency.Observe(ev.Latency)
		}
		if ev.Kind == KindIMRequest && ev.Queue > sum.IMQueueHighWater {
			sum.IMQueueHighWater = ev.Queue
		}
	}
}

// Validate checks one event against the schema.
func (ev Event) Validate() error {
	if !KnownKinds[ev.Kind] {
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	if math.IsNaN(ev.T) || math.IsInf(ev.T, 0) || ev.T < 0 {
		return fmt.Errorf("%s: bad time %v", ev.Kind, ev.T)
	}
	if ev.Node < 0 {
		return fmt.Errorf("%s: negative node %d", ev.Kind, ev.Node)
	}
	switch ev.Kind {
	case KindMsgSend, KindMsgDeliver, KindMsgLoss, KindMsgDrop:
		if ev.MsgKind == "" || ev.From == "" || ev.To == "" {
			return fmt.Errorf("%s: missing msg_kind/from/to", ev.Kind)
		}
		if ev.Latency < 0 {
			return fmt.Errorf("%s: negative latency %v", ev.Kind, ev.Latency)
		}
	case KindVehState:
		if ev.Vehicle == 0 || !strings.Contains(ev.Detail, "->") {
			return fmt.Errorf("%s: need veh and old->new detail", ev.Kind)
		}
	case KindIMGrant, KindIMStop, KindIMReject, KindIMRevision,
		KindVehCommit, KindSimSpawn, KindSimExit, KindSimHop,
		KindBookAdd, KindBookRemove:
		if ev.Vehicle == 0 {
			return fmt.Errorf("%s: missing veh", ev.Kind)
		}
	case KindSimCollision, KindSimBufViol:
		if ev.Vehicle == 0 || ev.Other == 0 {
			return fmt.Errorf("%s: missing vehicle pair", ev.Kind)
		}
	case KindFaultBegin, KindFaultEnd:
		if ev.Detail == "" {
			return fmt.Errorf("%s: missing fault-kind detail", ev.Kind)
		}
	case KindVehFailsafe:
		if ev.Vehicle == 0 || ev.Detail == "" {
			return fmt.Errorf("%s: need veh and reason detail", ev.Kind)
		}
	case KindIMLease:
		if ev.Vehicle == 0 {
			return fmt.Errorf("%s: missing veh", ev.Kind)
		}
	case KindConnOpen, KindConnClose:
		if ev.Detail == "" {
			return fmt.Errorf("%s: missing detail", ev.Kind)
		}
	case KindIMDigest:
		if ev.From == "" {
			return fmt.Errorf("%s: missing sender endpoint", ev.Kind)
		}
	case KindIMDefer:
		if ev.Vehicle == 0 || ev.Detail == "" {
			return fmt.Errorf("%s: need veh and reason detail", ev.Kind)
		}
	}
	return nil
}
