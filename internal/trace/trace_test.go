package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Emit(Event{Kind: KindMsgSend})
	if r.Total() != 0 || r.Events() != nil || r.KindCount(KindMsgSend) != 0 {
		t.Error("nil recorder retained state")
	}
	if s := r.Summary(); s.Total != 0 {
		t.Errorf("nil summary total = %d", s.Total)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}, "x"); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

func TestFullModeRetainsEverything(t *testing.T) {
	r := NewFull()
	for i := 0; i < 100; i++ {
		r.Emit(Event{Kind: KindDESEvent, T: float64(i)})
	}
	evs := r.Events()
	if len(evs) != 100 || r.Total() != 100 {
		t.Fatalf("retained %d / total %d", len(evs), r.Total())
	}
	if evs[0].T != 0 || evs[99].T != 99 {
		t.Errorf("order broken: first %v last %v", evs[0].T, evs[99].T)
	}
}

func TestClockStampsZeroTimes(t *testing.T) {
	r := NewFull()
	now := 3.5
	r.Now = func() float64 { return now }
	r.Emit(Event{Kind: KindBookAdd, Vehicle: 1})
	r.Emit(Event{Kind: KindBookRemove, Vehicle: 1, T: 7}) // explicit T wins
	evs := r.Events()
	if evs[0].T != 3.5 {
		t.Errorf("clock stamp = %v, want 3.5", evs[0].T)
	}
	if evs[1].T != 7 {
		t.Errorf("explicit T overridden: %v", evs[1].T)
	}
}

func TestSummaryCounters(t *testing.T) {
	r := NewFull()
	r.Emit(Event{Kind: KindMsgSend, MsgKind: "request", From: "a", To: "im"})
	r.Emit(Event{Kind: KindMsgDeliver, MsgKind: "request", From: "a", To: "im", Latency: 0.003})
	r.Emit(Event{Kind: KindMsgDeliver, MsgKind: "request", From: "a", To: "im", Latency: 0.050})
	r.Emit(Event{Kind: KindIMRequest, Vehicle: 1, Queue: 3})
	r.Emit(Event{Kind: KindIMRequest, Vehicle: 2, Queue: 1})
	s := r.Summary()
	if s.Total != 5 || s.ByKind[KindMsgDeliver] != 2 {
		t.Errorf("summary counts wrong: %+v", s)
	}
	if s.IMQueueHighWater != 3 {
		t.Errorf("queue high-water = %d, want 3", s.IMQueueHighWater)
	}
	if s.Latency.Total() != 2 {
		t.Errorf("latency samples = %d, want 2", s.Latency.Total())
	}
	// 3 ms lands in the (2,4] bucket, 50 ms in the (32,64] bucket.
	if s.Latency.Counts[3] != 1 || s.Latency.Counts[7] != 1 {
		t.Errorf("latency buckets wrong: %v", s.Latency.Counts)
	}
}

func TestSummaryMergeAndString(t *testing.T) {
	a := NewFull()
	a.Emit(Event{Kind: KindMsgDeliver, MsgKind: "request", From: "a", To: "im", Latency: 0.001})
	a.Emit(Event{Kind: KindIMRequest, Vehicle: 1, Queue: 2})
	b := NewFull()
	b.Emit(Event{Kind: KindIMRequest, Vehicle: 2, Queue: 5})

	s := a.Summary()
	s.Merge(b.Summary())
	if s.Total != 3 || s.ByKind[KindIMRequest] != 2 || s.IMQueueHighWater != 5 {
		t.Errorf("merged summary wrong: %+v", s)
	}
	out := s.String()
	for _, want := range []string{"3 events", "high-water 5", KindIMRequest} {
		if !strings.Contains(out, want) {
			t.Errorf("summary string missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLRoundTripAndValidate(t *testing.T) {
	r := NewFull()
	r.Emit(Event{Kind: KindMsgSend, T: 1, MsgKind: "request", From: "veh1", To: "im", Bytes: 64, Latency: 0.004})
	r.Emit(Event{Kind: KindMsgDeliver, T: 1.004, MsgKind: "request", From: "veh1", To: "im", Latency: 0.004})
	r.Emit(Event{Kind: KindIMGrant, T: 1.03, Vehicle: 1, Detail: "timed", Value: 4.2, WallNs: 1200})
	r.Emit(Event{Kind: KindVehState, T: 1.05, Vehicle: 1, Detail: "request->follow"})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "rate=0.4/crossroads"); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 || evs[0].Run != "rate=0.4/crossroads" || evs[2].Value != 4.2 {
		t.Fatalf("round trip mangled events: %+v", evs)
	}
	n, sum, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if n != 4 || sum.ByKind[KindMsgDeliver] != 1 {
		t.Errorf("validate saw %d events, summary %+v", n, sum)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := map[string]string{
		"unknown kind":  `{"kind":"msg.teleport","t":1}`,
		"negative time": `{"kind":"des.event","t":-1}`,
		"msg no from":   `{"kind":"msg.send","t":1,"msg_kind":"request","to":"im"}`,
		"state no veh":  `{"kind":"veh.state","t":1,"detail":"a->b"}`,
		"state detail":  `{"kind":"veh.state","t":1,"veh":3,"detail":"follow"}`,
		"unknown field": `{"kind":"des.event","t":1,"surprise":true}`,
		"pair missing":  `{"kind":"sim.collision","t":1,"veh":3}`,
	}
	for name, line := range cases {
		if _, _, err := ValidateJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted %s", name, line)
		}
	}
}

func TestCanonicalizeWall(t *testing.T) {
	evs := []Event{{Kind: KindDESEvent, T: 1, WallNs: 99}, {Kind: KindIMGrant, T: 2, WallNs: 5, Vehicle: 1}}
	for _, ev := range CanonicalizeWall(evs) {
		if ev.WallNs != 0 {
			t.Errorf("wall not zeroed: %+v", ev)
		}
	}
}

func TestHistogramMergePanicsOnLayoutMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a := Histogram{Bounds: []float64{1}, Counts: []int{0, 0}}
	b := Histogram{Bounds: []float64{1, 2}, Counts: []int{0, 0, 0}}
	a.Merge(b)
}

// TestNilEmitNearZeroOverhead is the executable form of the nil-recorder
// overhead contract: the disabled emit path (one pointer test per call)
// must cost nanoseconds, so leaving instrumentation permanently wired into
// des/network/im/vehicle/sim costs an un-traced BenchmarkFlowSweep well
// under its 5% regression budget (~10^6 emits per multi-second sweep).
func TestNilEmitNearZeroOverhead(t *testing.T) {
	var r *Recorder
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r != nil {
				r.Emit(Event{Kind: KindDESEvent, T: 1})
			}
		}
	})
	const budget = 50 // ns/op; the guarded call is ~0.3 ns in practice
	if perOp := res.NsPerOp(); perOp > budget {
		t.Errorf("nil-recorder emit path costs %d ns/op, budget %d", perOp, budget)
	}
}

func BenchmarkEmitNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Kind: KindMsgSend, T: float64(i), MsgKind: "request", From: "veh1", To: "im"})
	}
}
