package des

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crossroads/internal/trace"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	if s.Executed() != 3 {
		t.Errorf("Executed = %v", s.Executed())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestAfterAndClock(t *testing.T) {
	s := New()
	var at float64 = -1
	s.At(2, func() {
		s.After(1.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 3.5 {
		t.Errorf("nested After ran at %v, want 3.5", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	ran := false
	s.At(1, func() {
		s.After(-5, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("clamped event did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.At(1, func() {})
}

func TestNilFnPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	h := s.At(1, func() { ran = true })
	if h.Cancelled() {
		t.Error("fresh handle reports cancelled")
	}
	h.Cancel()
	if !h.Cancelled() {
		t.Error("Cancel did not mark handle")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Cancelling twice and cancelling zero handle are no-ops.
	h.Cancel()
	(Handle{}).Cancel()
	if (Handle{}).Cancelled() {
		t.Error("zero handle reports cancelled")
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	var h Handle
	ran := false
	s.At(1, func() { h.Cancel() })
	h = s.At(2, func() { ran = true })
	s.Run()
	if ran {
		t.Error("event cancelled mid-run still ran")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var times []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { times = append(times, tt) })
	}
	n := s.RunUntil(3)
	if n != 3 {
		t.Errorf("executed %d, want 3", n)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	n = s.RunUntil(math.Inf(1))
	if n != 2 || s.Now() != 5 {
		t.Errorf("rest: n=%d Now=%v", n, s.Now())
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Errorf("Now = %v, want 7", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.RunUntil(2)
	count := 0
	s.At(3, func() { count++ })
	s.At(5, func() { count++ })
	s.RunFor(1.5) // until 3.5
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
	if s.Now() != 3.5 {
		t.Errorf("Now = %v, want 3.5", s.Now())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	panicked := false
	s.At(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.Run()
	})
	s.Run()
	if !panicked {
		t.Error("reentrant Run did not panic")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []float64
	s.Ticker(1, 0.5, func() bool {
		ticks = append(ticks, s.Now())
		return len(ticks) < 4
	})
	s.Run()
	want := []float64{1, 1.5, 2, 2.5}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if math.Abs(ticks[i]-want[i]) > 1e-12 {
			t.Errorf("tick %d = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := New()
	count := 0
	stop := s.Ticker(0, 1, func() bool { count++; return true })
	s.At(3.5, func() { stop() })
	s.RunUntil(10)
	if count != 4 { // t=0,1,2,3
		t.Errorf("count = %d, want 4", count)
	}
}

// TestTickerAllocationFree pins the package comment's claim for tickers:
// once the event pool and the queue have grown, a tick allocates nothing.
func TestTickerAllocationFree(t *testing.T) {
	s := New()
	s.Ticker(0, 0.5, func() bool { return true })
	s.RunFor(10) // warm the pool and the queue
	if allocs := testing.AllocsPerRun(1000, func() { s.RunFor(0.5) }); allocs != 0 {
		t.Errorf("a warmed-up tick allocates %v objects, want 0", allocs)
	}
}

// TestTickerKeepsFIFOWithSameTimeEvents pins that a tick takes its place
// among same-time events when it is rescheduled, after fn returns, as the
// one-closure-per-tick ticker did: an event scheduled for the next tick's
// time before that runs first, one scheduled by fn runs before it, and
// one scheduled after the reschedule runs after.
func TestTickerKeepsFIFOWithSameTimeEvents(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func() { order = append(order, "before") })
	n := 0
	s.Ticker(0, 1, func() bool {
		n++
		order = append(order, fmt.Sprintf("tick%d", n))
		if n == 1 {
			s.At(1, func() { order = append(order, "from-fn") })
		}
		return n < 3
	})
	s.At(0, func() {
		s.At(1, func() { order = append(order, "after") })
	})
	s.Run()
	want := []string{"tick1", "before", "from-fn", "tick2", "after", "tick3"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Ticker(0, 0, func() bool { return true })
}

func TestTickerStartInPast(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run() // now = 5
	var first float64 = -1
	s.Ticker(1, 1, func() bool {
		if first < 0 {
			first = s.Now()
		}
		return false
	})
	s.Run()
	if first != 5 {
		t.Errorf("ticker with past start ran at %v, want 5", first)
	}
}

func TestStepReturnsFalseOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	s.At(1, func() {})
	if !s.Step() {
		t.Error("Step with pending event returned false")
	}
	if s.Step() {
		t.Error("Step after draining returned true")
	}
}

func TestStressRandomOrder(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(99))
	const n = 5000
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	var got []float64
	for _, tt := range times {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("executed %d, want %d", len(got), n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Error("events did not run in sorted time order")
	}
}

func TestTraceRecordsExecutedEvents(t *testing.T) {
	s := New()
	rec := trace.NewFull()
	s.SetTrace(rec)
	s.At(1, func() {})
	s.At(2, func() {})
	h := s.At(3, func() {})
	h.Cancel()
	s.Run()
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("traced %d events, want 2 (cancelled events must not trace)", len(evs))
	}
	if evs[0].Kind != trace.KindDESEvent || evs[0].T != 1 || evs[1].T != 2 {
		t.Errorf("trace stream wrong: %+v", evs)
	}
	if evs[0].WallNs < 0 {
		t.Errorf("negative wall time: %+v", evs[0])
	}
	if int(s.Executed()) != rec.Total() {
		t.Errorf("Executed %d != traced %d", s.Executed(), rec.Total())
	}
}

func TestPendingCountsOnlyLiveEvents(t *testing.T) {
	s := New()
	h1 := s.At(1, func() {})
	s.At(2, func() {})
	h3 := s.At(3, func() {})
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
	h1.Cancel()
	h3.Cancel()
	// Cancelled events still sit in the queue (lazy removal) but must not
	// be reported as pending.
	if s.Pending() != 1 {
		t.Errorf("Pending after two cancels = %d, want 1", s.Pending())
	}
	h1.Cancel() // double-cancel must not double-decrement
	if s.Pending() != 1 {
		t.Errorf("Pending after re-cancel = %d, want 1", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("Pending after Run = %d, want 0", s.Pending())
	}
	if s.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", s.Executed())
	}
}

func TestStaleHandleIsInertAfterReuse(t *testing.T) {
	// Once an event has executed, its pooled object may be reused by a new
	// schedule; the old handle must have expired and must not affect the new
	// event.
	s := New()
	h1 := s.At(1, func() {})
	s.RunUntil(1)
	ran := false
	h2 := s.At(2, func() { ran = true }) // reuses the pooled object
	h1.Cancel()                          // stale: must be a no-op
	if h1.Cancelled() {
		t.Error("stale handle reports cancelled")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (stale Cancel must not decrement)", s.Pending())
	}
	s.Run()
	if !ran {
		t.Error("stale Cancel killed the reused event")
	}
	_ = h2
}

func TestEventPoolReusesObjects(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.At(float64(i), func() {})
	}
	s.Run()
	if len(s.free) == 0 {
		t.Fatal("free list empty after run")
	}
	// Steady state: scheduling again must draw from the pool, not allocate.
	before := len(s.free)
	s.At(2000, func() {})
	if len(s.free) != before-1 {
		t.Errorf("free list %d -> %d, want pooled reuse", before, len(s.free))
	}
	s.Run()
}

// BenchmarkTicker times one tick of a ticker with an empty body through
// the untraced dispatch loop: the DES layer's fixed cost per physics tick.
func BenchmarkTicker(b *testing.B) {
	s := New()
	s.Ticker(0, 1, func() bool { return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(float64(i))
	}
}

// TestNonFiniteTimesPanic: dispatch orders ticks and events by comparing
// times, which NaN defeats, so At refuses a NaN time (After too, since
// Now+NaN is NaN) and Ticker a NaN start or a period that is not finite
// and positive.
func TestNonFiniteTimesPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		call func(s *Simulator)
	}{
		{"At NaN", func(s *Simulator) { s.At(nan, func() {}) }},
		{"After NaN", func(s *Simulator) { s.After(nan, func() {}) }},
		{"Ticker start NaN", func(s *Simulator) { s.Ticker(nan, 1, func() bool { return true }) }},
		{"Ticker period NaN", func(s *Simulator) { s.Ticker(0, nan, func() bool { return true }) }},
		{"Ticker period +Inf", func(s *Simulator) { s.Ticker(0, inf, func() bool { return true }) }},
		{"Ticker period -Inf", func(s *Simulator) { s.Ticker(0, -inf, func() bool { return true }) }},
		{"Ticker period negative", func(s *Simulator) { s.Ticker(0, -1, func() bool { return true }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			defer func() {
				if recover() == nil {
					t.Errorf("no panic; Now=%v Pending=%d", s.Now(), s.Pending())
				}
			}()
			tc.call(s)
		})
	}
}

// BenchmarkTickerAmongEvents times one empty tick with 40 far-future
// events pending, the shape of a 40-vehicle cell's pre-scheduled arrivals
// around the physics ticker: the DES layer's fixed cost per physics tick
// when the queue is not empty.
func BenchmarkTickerAmongEvents(b *testing.B) {
	s := New()
	for i := 0; i < 40; i++ {
		s.At(1e12+float64(i), func() {})
	}
	s.Ticker(0, 1, func() bool { return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(float64(i))
	}
}
