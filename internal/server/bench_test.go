package server

import (
	"testing"

	"crossroads/internal/protocol"
)

// BenchmarkServerExecutiveStep times one request's trip through a shard
// executive, as the core loop drives it between frames: the clock moves
// on 10 ms (shard.advance's RunUntil), one Request is injected, and the
// world runs event to event (NextTime, then RunUntil, as shard.rearm and
// the timer do) until the grant is delivered; then the vehicle's Exit is
// injected and delivered, so the book stays a fixed size. Four vehicles,
// one per approach, take turns.
func BenchmarkServerExecutiveStep(b *testing.B) {
	w, err := newWorldAt(Config{Policy: "crossroads", Geometry: protocol.GeometryScaleModel, Seed: 1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	granted := false
	w.deliver = func(now float64, id int64, f protocol.Frame) {
		if _, ok := f.(protocol.Grant); ok {
			granted = true
		}
	}
	var reqs [4]protocol.Request
	for a := range reqs {
		reqs[a] = testRequest(int64(a)+1, 0, uint8(a), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.sim.RunUntil(w.sim.Now() + 0.01)
		now := w.sim.Now()
		req := reqs[i%4]
		req.T, req.TransmitTime, req.Seq = now, now, uint32(i/4+1)
		if err := w.injectNow(req); err != nil {
			b.Fatal(err)
		}
		for !granted {
			next, ok := w.sim.NextTime()
			if !ok {
				b.Fatalf("request %d: nothing pending and no grant", i)
			}
			w.sim.RunUntil(next)
		}
		granted = false
		if err := w.injectNow(protocol.Exit{T: now, VehicleID: req.VehicleID, ExitTimestamp: now}); err != nil {
			b.Fatal(err)
		}
		w.sim.RunUntil(w.sim.Now())
	}
}
