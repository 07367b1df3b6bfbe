package network

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/des"
	"crossroads/internal/trace"
)

func newTestNet(delay DelayModel, loss float64) (*des.Simulator, *Network) {
	sim := des.New()
	rng := rand.New(rand.NewSource(11))
	var lossRNG *rand.Rand
	if loss > 0 {
		lossRNG = rand.New(rand.NewSource(12))
	}
	return sim, New(sim, rng, lossRNG, delay, loss)
}

func TestDeliveryWithConstantDelay(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.01}, 0)
	var gotAt float64 = -1
	var got Message
	net.Register("im", func(now float64, m Message) { gotAt = now; got = m })
	sim.At(1, func() {
		net.Send(Message{Kind: KindRequest, From: "veh1", To: "im", Payload: 42})
	})
	sim.Run()
	if gotAt != 1.01 {
		t.Errorf("delivered at %v, want 1.01", gotAt)
	}
	if got.SentAt != 1 {
		t.Errorf("SentAt = %v, want 1", got.SentAt)
	}
	if got.Payload != 42 || got.From != "veh1" {
		t.Errorf("message corrupted: %+v", got)
	}
}

func TestDeliveryToUnknownEndpointDropped(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.01}, 0)
	sim.At(0, func() {
		net.Send(Message{Kind: KindRequest, From: "a", To: "ghost"})
	})
	sim.Run() // must not panic
	st := net.TotalStats()
	if st.Sent != 1 {
		t.Errorf("Sent = %d", st.Sent)
	}
	if st.Undeliverable != 1 || st.Delivered != 0 {
		t.Errorf("Undeliverable = %d, Delivered = %d; want 1, 0", st.Undeliverable, st.Delivered)
	}
}

// TestUnregisterDropsInFlight is the regression test for the
// delivery-accounting bug: a message in flight to an endpoint that
// unregisters before the latency elapses must be counted Undeliverable,
// not Delivered, and must not contribute to the delay statistics.
func TestUnregisterDropsInFlight(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.1}, 0)
	delivered := false
	net.Register("b", func(float64, Message) { delivered = true })
	sim.At(0, func() {
		net.Send(Message{From: "a", To: "b"})
		net.Unregister("b")
	})
	sim.Run()
	if delivered {
		t.Error("message delivered to unregistered endpoint")
	}
	st := net.TotalStats()
	if st.Undeliverable != 1 {
		t.Errorf("Undeliverable = %d, want 1", st.Undeliverable)
	}
	if st.Delivered != 0 || st.TotalDelay != 0 || st.MaxDelay != 0 {
		t.Errorf("undeliverable message polluted delivery stats: %+v", st)
	}
	if ep := net.EndpointStats("a"); ep.Undeliverable != 1 || ep.Delivered != 0 {
		t.Errorf("per-endpoint accounting wrong: %+v", ep)
	}
	if st.MeanDelay() != 0 {
		t.Errorf("MeanDelay = %v, want 0", st.MeanDelay())
	}
}

func TestReRegisterReplacesHandler(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.01}, 0)
	which := 0
	net.Register("x", func(float64, Message) { which = 1 })
	net.Register("x", func(float64, Message) { which = 2 })
	sim.At(0, func() { net.Send(Message{From: "a", To: "x"}) })
	sim.Run()
	if which != 2 {
		t.Errorf("handler = %d, want 2", which)
	}
}

func TestUniformDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := UniformDelay{Min: 0.002, Max: 0.015}
	for i := 0; i < 10000; i++ {
		d := u.Sample(rng)
		if d < u.Min || d > u.Max {
			t.Fatalf("sample %v out of bounds", d)
		}
	}
	if u.Worst() != 0.015 {
		t.Errorf("Worst = %v", u.Worst())
	}
	degenerate := UniformDelay{Min: 0.01, Max: 0.01}
	if d := degenerate.Sample(rng); d != 0.01 {
		t.Errorf("degenerate sample = %v", d)
	}
}

func TestTruncNormalDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := TruncNormalDelay{Mean: 0.004, Std: 0.003, Min: 0.0005, Max: 0.015}
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		d := n.Sample(rng)
		if d < n.Min || d > n.Max {
			t.Fatalf("sample %v out of bounds", d)
		}
		sum += d
	}
	mean := sum / trials
	if mean < 0.003 || mean > 0.006 {
		t.Errorf("mean %v far from configured 0.004", mean)
	}
	if n.Worst() != 0.015 {
		t.Errorf("Worst = %v", n.Worst())
	}
}

func TestTruncNormalDegenerateWindow(t *testing.T) {
	// Window that the normal essentially never hits: fall back to a legal
	// value instead of looping forever.
	rng := rand.New(rand.NewSource(7))
	n := TruncNormalDelay{Mean: 100, Std: 0.0001, Min: 0, Max: 0.001}
	d := n.Sample(rng)
	if d < n.Min || d > n.Max {
		t.Errorf("fallback %v out of bounds", d)
	}
}

func TestTestbedDelayWorstCase(t *testing.T) {
	d := TestbedDelay()
	if d.Worst() != 0.015 {
		t.Errorf("testbed worst = %v, want 0.015 (paper's 15 ms)", d.Worst())
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		if s := d.Sample(rng); s > 0.015 || s < 0 {
			t.Fatalf("sample %v out of range", s)
		}
	}
}

func TestLossInjection(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.001}, 0.5)
	delivered := 0
	net.Register("im", func(float64, Message) { delivered++ })
	const total = 2000
	sim.At(0, func() {
		for i := 0; i < total; i++ {
			net.Send(Message{From: "v", To: "im"})
		}
	})
	sim.Run()
	st := net.TotalStats()
	if st.Sent != total {
		t.Errorf("Sent = %d", st.Sent)
	}
	if st.Dropped+st.Delivered != total {
		t.Errorf("Dropped %d + Delivered %d != %d", st.Dropped, st.Delivered, total)
	}
	if delivered != st.Delivered {
		t.Errorf("handler saw %d, stats say %d", delivered, st.Delivered)
	}
	frac := float64(st.Dropped) / total
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction %v far from 0.5", frac)
	}
}

func TestStatsAccounting(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.002}, 0)
	net.Register("im", func(float64, Message) {})
	sim.At(0, func() {
		net.Send(Message{Kind: KindRequest, From: "v1", To: "im"})
		net.Send(Message{Kind: KindRequest, From: "v1", To: "im"})
		net.Send(Message{Kind: KindResponse, From: "im", To: "v1"})
	})
	sim.Run()
	if got := net.EndpointStats("v1").Sent; got != 2 {
		t.Errorf("v1 sent = %d", got)
	}
	if got := net.EndpointStats("im").Sent; got != 1 {
		t.Errorf("im sent = %d", got)
	}
	if got := net.EndpointStats("nobody").Sent; got != 0 {
		t.Errorf("unknown endpoint sent = %d", got)
	}
	if got := net.KindCount(KindRequest); got != 2 {
		t.Errorf("request count = %d", got)
	}
	if got := net.MessageCount(); got != 3 {
		t.Errorf("MessageCount = %d", got)
	}
	wantBytes := 2*KindRequest.WireSize() + KindResponse.WireSize()
	if got := net.TotalStats().Bytes; got != wantBytes {
		t.Errorf("Bytes = %d, want %d", got, wantBytes)
	}
	if md := net.TotalStats().MeanDelay(); math.Abs(md-0.002) > 1e-12 {
		t.Errorf("MeanDelay = %v", md)
	}
	if mx := net.TotalStats().MaxDelay; mx != 0.002 {
		t.Errorf("MaxDelay = %v", mx)
	}
}

// TestTraceLifecycleReconciles drives a lossy network with a mid-run
// unregister and checks the emitted event stream reconciles exactly with
// the Stats counters: every Send is one msg.send, every loss one msg.loss,
// every handler invocation one msg.deliver, every dead-endpoint delivery
// one msg.drop.
func TestTraceLifecycleReconciles(t *testing.T) {
	sim, net := newTestNet(UniformDelay{Min: 0.001, Max: 0.01}, 0.2)
	rec := trace.NewFull()
	net.SetTrace(rec)
	net.Register("im", func(float64, Message) {})
	const total = 500
	sim.At(0, func() {
		for i := 0; i < total; i++ {
			net.Send(Message{Kind: KindRequest, From: "v", To: "im"})
		}
		// Half the traffic aimed at an endpoint that disappears.
		net.Register("gone", func(float64, Message) {})
		for i := 0; i < 100; i++ {
			net.Send(Message{Kind: KindAck, From: "v", To: "gone"})
		}
		net.Unregister("gone")
	})
	sim.Run()
	st := net.TotalStats()
	if got := rec.KindCount(trace.KindMsgSend); got != st.Sent {
		t.Errorf("msg.send events %d != Sent %d", got, st.Sent)
	}
	if got := rec.KindCount(trace.KindMsgLoss); got != st.Dropped {
		t.Errorf("msg.loss events %d != Dropped %d", got, st.Dropped)
	}
	if got := rec.KindCount(trace.KindMsgDeliver); got != st.Delivered {
		t.Errorf("msg.deliver events %d != Delivered %d", got, st.Delivered)
	}
	if got := rec.KindCount(trace.KindMsgDrop); got != st.Undeliverable {
		t.Errorf("msg.drop events %d != Undeliverable %d", got, st.Undeliverable)
	}
	if st.Undeliverable == 0 || st.Dropped == 0 || st.Delivered == 0 {
		t.Errorf("test vacuous: %+v", st)
	}
	if st.Sent != st.Delivered+st.Dropped+st.Undeliverable {
		t.Errorf("counters don't close: %+v", st)
	}
	if sum := rec.Summary(); sum.Latency.Total() != st.Delivered {
		t.Errorf("latency histogram has %d samples, want %d", sum.Latency.Total(), st.Delivered)
	}
}

func TestMeanDelayNoDeliveries(t *testing.T) {
	var s Stats
	if s.MeanDelay() != 0 {
		t.Errorf("MeanDelay on empty = %v", s.MeanDelay())
	}
}

func TestSendReturnsSampledDelay(t *testing.T) {
	sim, net := newTestNet(UniformDelay{Min: 0.001, Max: 0.01}, 0)
	net.Register("im", func(float64, Message) {})
	sim.At(0, func() {
		for i := 0; i < 100; i++ {
			d := net.Send(Message{From: "v", To: "im"})
			if d < 0.001 || d > 0.01 {
				t.Errorf("returned delay %v out of model bounds", d)
			}
		}
	})
	sim.Run()
}

func TestSendReturnsMinusOneOnLoss(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.001}, 0.999999)
	net.Register("im", func(float64, Message) {})
	lost := false
	sim.At(0, func() {
		for i := 0; i < 50; i++ {
			if net.Send(Message{From: "v", To: "im"}) < 0 {
				lost = true
			}
		}
	})
	sim.Run()
	if !lost {
		t.Error("no loss observed at p=0.999999")
	}
}

func TestKindStringAndWireSize(t *testing.T) {
	for k := KindRegister; k <= KindAck; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if k.WireSize() <= 0 {
			t.Errorf("kind %v has nonpositive wire size", k)
		}
	}
	if s := Kind(99).String(); s != "kind(99)" {
		t.Errorf("unknown kind string = %q", s)
	}
	if Kind(99).WireSize() != 16 {
		t.Errorf("unknown kind size = %d", Kind(99).WireSize())
	}
	if KindRequest.WireSize() <= KindAccept.WireSize() {
		t.Error("request should be larger than accept on the wire")
	}
}

func TestConstructorValidation(t *testing.T) {
	sim := des.New()
	rng := rand.New(rand.NewSource(1))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil delay", func() { New(sim, rng, nil, nil, 0) })
	mustPanic("bad loss", func() { New(sim, rng, rng, ConstantDelay{}, 1.5) })
	mustPanic("lossy without loss RNG", func() { New(sim, rng, nil, ConstantDelay{}, 0.1) })
	mustPanic("nil handler", func() {
		n := New(sim, rng, nil, ConstantDelay{}, 0)
		n.Register("x", nil)
	})
}

func TestNegativeDelaySampleClamped(t *testing.T) {
	sim := des.New()
	rng := rand.New(rand.NewSource(1))
	net := New(sim, rng, nil, weirdDelay{}, 0)
	net.Register("im", func(float64, Message) {})
	var at float64 = -1
	net.Register("im", func(now float64, _ Message) { at = now })
	sim.At(5, func() { net.Send(Message{From: "v", To: "im"}) })
	sim.Run()
	if at != 5 {
		t.Errorf("negative delay not clamped: delivered at %v", at)
	}
}

type weirdDelay struct{}

func (weirdDelay) Sample(*rand.Rand) float64 { return -0.5 }
func (weirdDelay) Worst() float64            { return 0 }

// TestLossDoesNotShiftDelayStream pins the split-RNG contract: the loss
// coins come from their own stream, so a lossy run samples the exact same
// per-message delay sequence as its lossless twin — lost messages simply
// return -1 in place of the sampled value.
func TestLossDoesNotShiftDelayStream(t *testing.T) {
	model := UniformDelay{Min: 0.001, Max: 0.015}
	run := func(loss float64) []float64 {
		sim := des.New()
		rng := rand.New(rand.NewSource(77)) // same delay stream both runs
		var lossRNG *rand.Rand
		if loss > 0 {
			lossRNG = rand.New(rand.NewSource(78))
		}
		net := New(sim, rng, lossRNG, model, loss)
		net.Register("im", func(float64, Message) {})
		var delays []float64
		for i := 0; i < 200; i++ {
			delays = append(delays, net.Send(Message{From: "veh", To: "im", Kind: KindRequest}))
		}
		return delays
	}
	clean, lossy := run(0), run(0.3)
	dropped := 0
	for i := range clean {
		if lossy[i] < 0 {
			dropped++
			continue
		}
		if lossy[i] != clean[i] {
			t.Fatalf("message %d: lossy delay %v != clean delay %v — loss coin perturbed the delay stream",
				i, lossy[i], clean[i])
		}
	}
	if dropped == 0 {
		t.Fatal("loss=0.3 dropped nothing in 200 sends; twin comparison is vacuous")
	}
}

// dropEverySecond is a minimal injector: drops odd sends, no RNG of its own.
type dropEverySecond struct{ n int }

func (d *dropEverySecond) OnSend(float64, Message) Verdict {
	d.n++
	return Verdict{Drop: d.n%2 == 0, Reason: "test"}
}

// TestInjectorDoesNotShiftDelayStream extends the twin contract to fault
// injection: an injector that drops messages must not shift the surviving
// messages' delay samples.
func TestInjectorDoesNotShiftDelayStream(t *testing.T) {
	model := UniformDelay{Min: 0.001, Max: 0.015}
	run := func(inject bool) []float64 {
		sim := des.New()
		net := New(sim, rand.New(rand.NewSource(77)), nil, model, 0)
		if inject {
			net.SetInjector(&dropEverySecond{})
		}
		net.Register("im", func(float64, Message) {})
		var delays []float64
		for i := 0; i < 100; i++ {
			delays = append(delays, net.Send(Message{From: "veh", To: "im", Kind: KindRequest}))
		}
		return delays
	}
	clean, faulted := run(false), run(true)
	for i := range clean {
		if faulted[i] < 0 {
			continue
		}
		if faulted[i] != clean[i] {
			t.Fatalf("message %d: faulted delay %v != clean delay %v", i, faulted[i], clean[i])
		}
	}
}

// TestDuplicateDelivery checks a duplicating injector yields two deliveries
// and the Duplicated counter tracks the extra copy.
func TestDuplicateDelivery(t *testing.T) {
	sim := des.New()
	net := New(sim, rand.New(rand.NewSource(1)), nil, ConstantDelay{D: 0.01}, 0)
	net.SetInjector(dupAll{})
	got := 0
	net.Register("im", func(float64, Message) { got++ })
	net.Send(Message{From: "veh", To: "im", Kind: KindRequest})
	sim.Run()
	if got != 2 {
		t.Fatalf("delivered %d copies, want 2", got)
	}
	st := net.TotalStats()
	if st.Duplicated != 1 || st.Sent != 1 || st.Delivered != 2 {
		t.Fatalf("stats %+v: want Sent=1 Duplicated=1 Delivered=2", st)
	}
}

type dupAll struct{}

func (dupAll) OnSend(float64, Message) Verdict {
	return Verdict{Duplicate: true, DupDelay: 0.005}
}

type chaseRouter struct {
	dstSim *des.Simulator
	dstNet *Network
	routed int
}

func (r *chaseRouter) Route(msg Message, detail string) bool {
	r.routed++
	// Hand the message to the other network and deliver it there at that
	// network's current time, as a shard-to-shard router does.
	msgCopy := msg
	r.dstNet.DeliverRouted(msgCopy, detail)
	return true
}

func TestRouterChasesUnregisteredEndpoint(t *testing.T) {
	simA, netA := newTestNet(ConstantDelay{0.004}, 0)
	simB, netB := newTestNet(ConstantDelay{0.004}, 0)
	r := &chaseRouter{dstSim: simB, dstNet: netB}
	netA.SetRouter(r)

	var got []Message
	netB.Register("veh1", func(now float64, msg Message) { got = append(got, msg) })
	// veh1 lives on network B; a message sent on network A must be routed.
	simB.RunUntil(0.05) // B's clock is ahead, like a shard past a barrier
	netA.Send(Message{Kind: KindResponse, From: "im", To: "veh1"})
	simA.Run()

	if r.routed != 1 {
		t.Fatalf("routed %d messages, want 1", r.routed)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d messages on B, want 1", len(got))
	}
	if netA.TotalStats().Undeliverable != 0 {
		t.Errorf("routed message counted undeliverable on A: %+v", netA.TotalStats())
	}
	if netA.TotalStats().Sent != 1 || netA.TotalStats().Delivered != 0 {
		t.Errorf("A stats: %+v, want Sent=1 Delivered=0", netA.TotalStats())
	}
	bs := netB.TotalStats()
	if bs.Delivered != 1 {
		t.Errorf("B stats: %+v, want Delivered=1", bs)
	}
	// End-to-end latency charged on B: SentAt=0 on A, delivered at B's now.
	if bs.TotalDelay != 0.05 {
		t.Errorf("B charged delay %v, want 0.05", bs.TotalDelay)
	}
}

func TestRouterDecliningFallsBackToUndeliverable(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{0.001}, 0)
	declined := 0
	net.SetRouter(routerFunc(func(Message, string) bool { declined++; return false }))
	net.Send(Message{Kind: KindExit, From: "veh9", To: "nobody"})
	sim.Run()
	if declined != 1 {
		t.Fatalf("router consulted %d times, want 1", declined)
	}
	if net.TotalStats().Undeliverable != 1 {
		t.Errorf("stats: %+v, want Undeliverable=1", net.TotalStats())
	}
}

type routerFunc func(Message, string) bool

func (f routerFunc) Route(m Message, d string) bool { return f(m, d) }

// TestRouterAccountingSides pins the cross-network accounting contract
// documented on Router: the source network charges only Sent/Bytes for a
// routed message; the delivery outcome — Delivered, or Undeliverable when
// the endpoint is gone by arrival — lands on the DESTINATION network,
// under the original sender's per-endpoint stats there. Summing per-shard
// Stats therefore counts each message's outcome exactly once.
func TestRouterAccountingSides(t *testing.T) {
	simA, netA := newTestNet(ConstantDelay{0.002}, 0)
	simB, netB := newTestNet(ConstantDelay{0.002}, 0)
	netA.SetRouter(&chaseRouter{dstSim: simB, dstNet: netB})

	delivered := 0
	netB.Register("veh1", func(float64, Message) { delivered++ })
	netA.Send(Message{Kind: KindResponse, From: "im", To: "veh1"})
	netA.Send(Message{Kind: KindResponse, From: "im", To: "ghost"})
	simA.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d messages on B, want 1", delivered)
	}

	a, b := netA.TotalStats(), netB.TotalStats()
	// Source side: Sent and Bytes only — no outcome fields.
	if a.Sent != 2 || a.Bytes == 0 {
		t.Errorf("source Sent=%d Bytes=%d, want Sent=2 with bytes charged", a.Sent, a.Bytes)
	}
	if a.Delivered != 0 || a.Undeliverable != 0 {
		t.Errorf("source charged outcomes %+v; routed outcomes belong to the destination", a)
	}
	// Destination side: one outcome per routed message, nothing sent.
	if b.Sent != 0 || b.Bytes != 0 {
		t.Errorf("destination charged send-side fields %+v", b)
	}
	if b.Delivered != 1 || b.Undeliverable != 1 {
		t.Errorf("destination outcomes %+v, want Delivered=1 Undeliverable=1", b)
	}
	// Outcomes on B are keyed by the ORIGINAL sender's endpoint.
	im := netB.EndpointStats("im")
	if im.Delivered != 1 || im.Undeliverable != 1 {
		t.Errorf("sender's stats on destination %+v, want Delivered=1 Undeliverable=1", im)
	}
	// The fold: exactly one outcome per message across both networks.
	if got := a.Delivered + b.Delivered + a.Undeliverable + b.Undeliverable; got != 2 {
		t.Errorf("summed outcomes = %d, want 2 (one per message)", got)
	}
}

// dupTo duplicates every message to one endpoint, the copy arriving delay
// seconds after the original.
type dupTo struct {
	to    string
	delay float64
}

func (d dupTo) OnSend(_ float64, msg Message) Verdict {
	return Verdict{Duplicate: msg.To == d.to, DupDelay: d.delay}
}

// TestReentrantSendsKeepDeliveryOrder has handlers send from inside their
// own delivery, with the copies to one endpoint duplicated: every message
// arrives intact, in kernel order (time, then scheduling order), and the
// stats count each send, copy and delivery once.
func TestReentrantSendsKeepDeliveryOrder(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.01}, 0)
	net.SetInjector(dupTo{to: "c", delay: 0.005})
	var log []string
	record := func(to string, now float64, msg Message) {
		log = append(log, fmt.Sprintf("%.3f %s<-%s %v sent %.3f", now, to, msg.From, msg.Payload, msg.SentAt))
	}
	send := func(from, to string, payload int) {
		net.Send(Message{Kind: KindRequest, From: from, To: to, Payload: payload})
	}
	net.Register("a", func(now float64, msg Message) {
		p := msg.Payload.(int)
		if p < 100 {
			send("a", "b", 10*p)
			send("a", "c", 10*p+1)
		}
		record("a", now, msg) // after the sends: msg must still be intact
	})
	net.Register("b", func(now float64, msg Message) {
		p := msg.Payload.(int)
		if p < 100 {
			send("b", "a", 10*p)
		}
		record("b", now, msg)
	})
	net.Register("c", func(now float64, msg Message) { record("c", now, msg) })
	send("src", "a", 1)
	send("src", "b", 2)
	sim.Run()

	want := []string{
		"0.010 a<-src 1 sent 0.000",
		"0.010 b<-src 2 sent 0.000",
		"0.020 b<-a 10 sent 0.010",
		"0.020 c<-a 11 sent 0.010",
		"0.020 a<-b 20 sent 0.010",
		"0.025 c<-a 11 sent 0.010",
		"0.030 a<-b 100 sent 0.020",
		"0.030 b<-a 200 sent 0.020",
		"0.030 c<-a 201 sent 0.020",
		"0.035 c<-a 201 sent 0.020",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deliveries:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	st := net.TotalStats()
	if st.Sent != 8 || st.Duplicated != 2 || st.Delivered != 10 || st.Bytes != 8*KindRequest.WireSize() ||
		st.Dropped != 0 || st.Undeliverable != 0 || math.Abs(st.TotalDelay-0.11) > 1e-12 || math.Abs(st.MaxDelay-0.015) > 1e-12 {
		t.Errorf("total stats %+v", st)
	}
	for _, ep := range []struct {
		name                        string
		sent, duplicated, delivered int
	}{{"src", 2, 0, 2}, {"a", 4, 2, 6}, {"b", 2, 0, 2}, {"c", 0, 0, 0}} {
		s := net.EndpointStats(ep.name)
		if s.Sent != ep.sent || s.Duplicated != ep.duplicated || s.Delivered != ep.delivered {
			t.Errorf("%s: sent %d, duplicated %d, delivered %d; want %d, %d, %d",
				ep.name, s.Sent, s.Duplicated, s.Delivered, ep.sent, ep.duplicated, ep.delivered)
		}
	}
}

// TestSendDeliverAllocatesNothing: once the kernel's event pool and the
// network's delivery pool are warm, a send and its delivery allocate
// nothing.
func TestSendDeliverAllocatesNothing(t *testing.T) {
	sim, net := newTestNet(ConstantDelay{D: 0.01}, 0)
	net.Register("im", func(float64, Message) {})
	msg := Message{Kind: KindRequest, From: "veh1", To: "im"}
	net.Send(msg)
	sim.Run()
	if a := testing.AllocsPerRun(100, func() { net.Send(msg); sim.Run() }); a != 0 {
		t.Errorf("%v allocations per send and delivery, want 0", a)
	}
}

// BenchmarkNetworkSendDeliver times one message through the network
// layer: a Send (stats, delay sample, scheduling) and its delivery through
// the kernel to the handler, on the testbed delay model.
func BenchmarkNetworkSendDeliver(b *testing.B) {
	sim, net := newTestNet(TestbedDelay(), 0)
	net.Register("im", func(float64, Message) {})
	msg := Message{Kind: KindRequest, From: "veh1", To: "im"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(msg)
		sim.Run()
	}
}
