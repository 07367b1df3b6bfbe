package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// TestTraceReconcilesWithNetworkStats runs a seeded worst-case scenario
// under message loss and clock drift and requires the trace's message
// lifecycle to account for every message the network layer counted: one
// msg.send per Sent, one msg.loss per Dropped, one msg.deliver per
// Delivered, and one msg.drop per Undeliverable — the exact invariant the
// delivery-accounting fix restored.
func TestTraceReconcilesWithNetworkStats(t *testing.T) {
	arr, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"vt-im", "crossroads", "aim"} {
		rec := trace.NewFull()
		res := run(t, Config{
			Policy:   pol,
			Seed:     11,
			LossProb: 0.10,
			Trace:    rec,
		}, arr)

		st := res.Network
		checks := []struct {
			kind string
			want int
		}{
			{trace.KindMsgSend, st.Sent},
			{trace.KindMsgLoss, st.Dropped},
			{trace.KindMsgDeliver, st.Delivered},
			{trace.KindMsgDrop, st.Undeliverable},
		}
		for _, c := range checks {
			if got := rec.KindCount(c.kind); got != c.want {
				t.Errorf("%v: %s events = %d, network stats say %d", pol, c.kind, got, c.want)
			}
		}
		if st.Dropped == 0 {
			t.Errorf("%v: loss injection produced no drops; test is vacuous", pol)
		}
		// Vehicles despawn (Unregister) with exit-ack retransmissions
		// possibly in flight, so undeliverable deliveries must occur —
		// this is the path the accounting bug used to misfile.
		if st.Undeliverable == 0 {
			t.Logf("%v: no undeliverable messages this run", pol)
		}
		// The summary's latency histogram samples exactly the deliveries.
		if got := rec.Summary().Latency.Total(); got != st.Delivered {
			t.Errorf("%v: latency samples = %d, delivered = %d", pol, got, st.Delivered)
		}
	}
}

// TestTraceIdenticalAcrossWorkerCounts requires the merged sweep trace to
// be identical for serial and parallel execution — wall time is the one
// nondeterministic field, so streams are compared after CanonicalizeWall.
func TestTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	// Uses sim directly per cell (mirroring the sweep's per-cell recorder
	// scheme) would under-test the engine; instead this exercises the real
	// sweep path from the sweep package's own test. Here we pin the
	// layer below it: two identical seeded runs must produce identical
	// canonicalized streams.
	arr, err := traffic.ScaleScenario(3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]trace.Event, 2)
	for i := range streams {
		rec := trace.NewFull()
		run(t, Config{Policy: "crossroads", Seed: 5, LossProb: 0.02, Trace: rec}, arr)
		streams[i] = trace.CanonicalizeWall(rec.Events())
	}
	if len(streams[0]) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatalf("identical seeded runs diverged: %d vs %d events", len(streams[0]), len(streams[1]))
	}
}

// TestTraceDESFirehose checks the separately-gated kernel stream: with
// TraceDES set, des.event records appear and dominate; without it, none.
func TestTraceDESFirehose(t *testing.T) {
	rec := trace.NewFull()
	run(t, Config{Policy: "vt-im", Seed: 6, Trace: rec, TraceDES: true}, singleArrival())
	if n := rec.KindCount(trace.KindDESEvent); n == 0 {
		t.Error("TraceDES produced no des.event records")
	}
	rec2 := trace.NewFull()
	run(t, Config{Policy: "vt-im", Seed: 6, Trace: rec2}, singleArrival())
	if n := rec2.KindCount(trace.KindDESEvent); n != 0 {
		t.Errorf("TraceDES off but %d des.event records traced", n)
	}
}

// TestTraceExportValidates round-trips a live run through the JSONL
// exporter and the schema validator.
func TestTraceExportValidates(t *testing.T) {
	rec := trace.NewFull()
	run(t, Config{Policy: "crossroads", Seed: 8, LossProb: 0.03, Trace: rec},
		func() []traffic.Arrival { a, _ := traffic.ScaleScenario(2, rand.New(rand.NewSource(8))); return a }())
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, "test-run"); err != nil {
		t.Fatal(err)
	}
	n, sum, err := trace.ValidateJSONL(&buf)
	if err != nil {
		t.Fatalf("exported stream failed validation: %v", err)
	}
	if n != rec.Total() {
		t.Errorf("validated %d events, recorder holds %d", n, rec.Total())
	}
	if sum.Total != rec.Summary().Total || sum.IMQueueHighWater != rec.Summary().IMQueueHighWater {
		t.Errorf("recomputed summary %+v != live summary %+v", sum, rec.Summary())
	}
}
