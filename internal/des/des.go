// Package des is a small deterministic discrete-event simulation kernel.
//
// Events are closures scheduled at absolute simulated times and executed in
// time order; ties are broken by scheduling order (FIFO), which keeps runs
// reproducible. With a trace recorder attached, every executed event is
// recorded with its handler's wall time; without one, Run and RunUntil
// read no clock.
//
// The pending queue is a 4-ary implicit heap (shallower than a binary
// heap, so a push or pop touches fewer cache lines per level) holding the
// events scheduled with At and After. A Ticker's next tick never enters
// it: each ticker keeps its pending tick beside the queue as a (time, seq)
// slot, taking its seq exactly where an At would, and every dispatch path
// runs whichever of the earliest slot and the queue's head comes first in
// (time, seq) order. Execution order, Now, Executed, Pending and the trace
// are those of one queue holding both, while a tick pushes and pops
// nothing.
//
// The serial hot path is allocation-free in steady state: executed and
// cancelled events return to a per-simulator free list and a tick only
// moves its slot. TestTickerAllocationFree pins it.
package des

import (
	"fmt"
	"math"
	"slices"
	"time"

	"crossroads/internal/trace"
)

// event is a scheduled callback. Events are pooled: after execution (or
// after a cancelled event is discarded from the queue) the event object
// returns to its simulator's free list and its gen counter is bumped, which
// inertly expires every outstanding Handle to it.
type event struct {
	time      float64
	seq       uint64
	gen       uint64
	fn        func()
	cancelled bool
	sim       *Simulator
}

// Handle identifies a scheduled event and allows cancelling it. Handles are
// generation-stamped: once the event has executed (or its cancellation has
// been collected), the handle expires and every further operation on it is
// a no-op, even after the pooled event object is reused.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to the event it was issued
// for (not yet executed, discarded, or reused).
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op. A zero Handle is safely ignorable.
func (h Handle) Cancel() {
	if h.live() && !h.ev.cancelled {
		h.ev.cancelled = true
		h.ev.sim.live--
	}
}

// Cancelled reports whether the handle's event has been cancelled.
func (h Handle) Cancelled() bool { return h.live() && h.ev.cancelled }

// ticker is one Ticker's state. While pending, its next tick is due at the
// (time, seq) slot: the time and sequence number an At of the tick would
// carry.
type ticker struct {
	time    float64
	seq     uint64
	period  float64
	fn      func() bool
	pending bool
	stopped bool
}

// Simulator owns the simulated clock, the pending event queue and the
// tickers' pending ticks.
type Simulator struct {
	now      float64
	seq      uint64
	queue    []*event  // 4-ary implicit min-heap on (time, seq)
	tickers  []*ticker // tickers with a tick pending or running
	tick     *ticker   // the earliest pending tick; nil, or not pending, when there is none
	live     int       // queued events not yet cancelled, plus pending ticks
	free     []*event  // pooled event objects
	executed uint64
	running  bool
	trace    *trace.Recorder
}

// SetTrace attaches an event recorder: every executed event emits a
// des.event record carrying its simulated time and measured handler wall
// time. This is the kernel firehose — physics ticks dominate it — so it is
// wired separately from the protocol-level tracing (sim.Config.TraceDES).
// nil detaches it.
func (s *Simulator) SetTrace(rec *trace.Recorder) { s.trace = rec }

// New returns a simulator with the clock at 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of live (not-yet-cancelled) events in the
// queue plus the tickers' pending ticks. Cancelled events awaiting lazy
// removal are not counted, so code gating on Pending (e.g. executive
// diagnostics) no longer sees phantoms.
func (s *Simulator) Pending() int { return s.live }

// earlier is the dispatch order on (time, seq): earliest first, FIFO on
// ties. Events and ticks draw their seq from one counter, so no two share
// one.
func earlier(ta float64, qa uint64, tb float64, qb uint64) bool {
	if ta != tb {
		return ta < tb
	}
	return qa < qb
}

// less orders the heap.
func less(a, b *event) bool { return earlier(a.time, a.seq, b.time, b.seq) }

// heapPush inserts ev into the 4-ary heap.
func (s *Simulator) heapPush(ev *event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	s.queue = q
}

// heapPop removes and returns the earliest event.
func (s *Simulator) heapPop() *event {
	q := s.queue
	top := q[0]
	last := len(q) - 1
	ev := q[last]
	q[last] = nil
	q = q[:last]
	s.queue = q
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if less(q[c], q[min]) {
				min = c
			}
		}
		if !less(q[min], ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
	return top
}

// acquire takes an event object from the pool (or allocates one).
func (s *Simulator) acquire() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{sim: s}
}

// release returns a popped event to the pool, expiring its handles.
func (s *Simulator) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.cancelled = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past (before Now) or at NaN panics: that is always a logic error in a
// protocol implementation.
func (s *Simulator) At(t float64, fn func()) Handle {
	if !(t >= s.now) { // a NaN t fails it too
		panic(fmt.Sprintf("des: scheduling event at %v, not at or after now %v", t, s.now))
	}
	if fn == nil {
		panic("des: nil event function")
	}
	ev := s.acquire()
	ev.time = t
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.heapPush(ev)
	s.live++
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run delay seconds from now. Negative delays are
// clamped to zero (run "immediately", after currently queued same-time
// events).
func (s *Simulator) After(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// next reports what runs next: the earliest pending tick (tk) or the
// queue's earliest live event (ev), or neither when nothing is pending. It
// discards the cancelled heads that come before the earliest tick, so a
// cancelled event is collected exactly when it would reach the head of one
// queue holding the ticks too.
func (s *Simulator) next() (ev *event, tk *ticker) {
	if tk = s.tick; tk != nil && !tk.pending {
		tk = nil // its tick is running, and no other is pending
	}
	for len(s.queue) > 0 {
		ev = s.queue[0]
		if tk != nil && earlier(tk.time, tk.seq, ev.time, ev.seq) {
			return nil, tk
		}
		if !ev.cancelled {
			return ev, nil
		}
		s.release(s.heapPop()) // live was decremented at Cancel time
	}
	return nil, tk
}

// dispatch runs what next returned, advancing the clock to its time. An
// event is released before its handler runs, so a handler rescheduling
// into the pool cannot alias a live handle.
func (s *Simulator) dispatch(ev *event, tk *ticker) {
	if tk != nil {
		s.fire(tk)
	} else {
		s.heapPop()
		s.live--
		s.now = ev.time
		fn := ev.fn
		s.release(ev)
		fn()
	}
	s.executed++
}

// Step executes the next pending event or tick, advancing the clock to
// its time. It returns false when nothing is pending.
func (s *Simulator) Step() bool {
	ev, tk := s.next()
	if ev == nil && tk == nil {
		return false
	}
	s.step(ev, tk)
	return true
}

// step dispatches ev or tk; with a recorder attached it times the handler
// and emits its des.event record.
func (s *Simulator) step(ev *event, tk *ticker) {
	if s.trace == nil {
		s.dispatch(ev, tk)
		return
	}
	start := time.Now()
	s.dispatch(ev, tk)
	s.trace.Emit(trace.Event{
		Kind: trace.KindDESEvent, T: s.now, WallNs: time.Since(start).Nanoseconds(),
	})
}

// Run executes events until nothing is pending. It returns the number of
// events executed.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= tEnd and then advances the clock to
// tEnd (if the queue emptied earlier, the clock still ends at tEnd). It
// returns the number of events executed during this call.
func (s *Simulator) RunUntil(tEnd float64) uint64 {
	if s.running {
		panic("des: reentrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	var n uint64
	for {
		ev, tk := s.next()
		if tk != nil {
			if tk.time > tEnd {
				break
			}
		} else if ev == nil || ev.time > tEnd {
			break
		}
		if s.trace == nil {
			s.dispatch(ev, tk) // reads no clock
		} else {
			s.step(ev, tk)
		}
		n++
	}
	if !math.IsInf(tEnd, 1) && tEnd > s.now {
		s.now = tEnd
	}
	return n
}

// RunFor runs events for d simulated seconds from the current time.
func (s *Simulator) RunFor(d float64) uint64 { return s.RunUntil(s.now + d) }

// NextTime returns the absolute time of the earliest pending live event
// or tick. Real-time executives (the wire server's core loop) use it to
// sleep until the next deferred reply is due instead of polling the
// kernel. Cancelled events at the head of the queue are discarded on the
// way, as next does.
func (s *Simulator) NextTime() (float64, bool) {
	ev, tk := s.next()
	switch {
	case tk != nil:
		return tk.time, true
	case ev != nil:
		return ev.time, true
	}
	return 0, false
}

// Ticker runs fn every period seconds starting at start (absolute; a start
// before Now starts at Now), until fn returns false or the returned stop
// function is called. A stopped ticker's pending tick still runs, as a
// no-op. The pending tick waits in the ticker's slot, not in the queue:
// after fn returns, the next tick takes t += period and the next sequence
// number, as s.At(t, tick) would, so a tick allocates nothing and touches
// no heap. A NaN start, or a period that is not finite and positive,
// panics.
func (s *Simulator) Ticker(start, period float64, fn func() bool) (stop func()) {
	if math.IsNaN(start) {
		panic("des: ticker start is NaN")
	}
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("des: ticker period %v must be finite and positive", period))
	}
	if start < s.now {
		start = s.now
	}
	tk := &ticker{time: start, period: period, fn: fn}
	s.tickers = append(s.tickers, tk)
	s.arm(tk)
	return func() { tk.stopped = true }
}

// fire runs tk's pending tick, the earliest: the clock moves to its time
// and, unless the ticker was stopped, fn runs; when fn asks for more, the
// next tick is armed after fn returns, else the ticker is dropped. A lone
// ticker, the simulator's physics plant, only flips its pending flag.
func (s *Simulator) fire(tk *ticker) {
	tk.pending = false
	s.live--
	if len(s.tickers) > 1 {
		s.tick = s.earliestTick()
	}
	s.now = tk.time
	if !tk.stopped && tk.fn() {
		tk.time += tk.period
		s.arm(tk)
		return
	}
	tk.stopped = true
	s.tickers = slices.DeleteFunc(s.tickers, func(o *ticker) bool { return o == tk })
	if s.tick == tk {
		s.tick = nil
	}
}

// arm makes tk's tick at tk.time pending, with the next sequence number.
func (s *Simulator) arm(tk *ticker) {
	tk.seq = s.seq
	s.seq++
	s.live++
	tk.pending = true
	if t := s.tick; t == nil || t != tk && (!t.pending || earlier(tk.time, tk.seq, t.time, t.seq)) {
		s.tick = tk
	}
}

// earliestTick returns the earliest pending tick in (time, seq) order, or
// nil when none is pending.
func (s *Simulator) earliestTick() (first *ticker) {
	for _, o := range s.tickers {
		if o.pending && (first == nil || earlier(o.time, o.seq, first.time, first.seq)) {
			first = o
		}
	}
	return first
}
