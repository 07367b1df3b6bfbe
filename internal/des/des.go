// Package des is a small deterministic discrete-event simulation kernel.
//
// Events are closures scheduled at absolute simulated times and executed in
// time order; ties are broken by scheduling order (FIFO), which keeps runs
// reproducible. With a trace recorder attached, every executed event is
// recorded with its handler's wall time; without one, Run and RunUntil
// read no clock.
//
// The serial hot path is allocation-free in steady state: executed and
// cancelled events return to a per-simulator free list, and the pending
// queue is a 4-ary implicit heap (shallower than a binary heap, so a push
// or pop touches fewer cache lines per level).
package des

import (
	"fmt"
	"math"
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

// Simulator owns the simulated clock and the pending event queue.
type Simulator struct {
	now      float64
	seq      uint64
	queue    []*event // 4-ary implicit min-heap on (time, seq)
	live     int      // queued events not yet cancelled
	free     []*event // pooled event objects
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
// queue. Cancelled events awaiting lazy removal are not counted, so code
// gating on Pending (e.g. executive diagnostics) no longer sees phantoms.
func (s *Simulator) Pending() int { return s.live }

// less orders the heap by (time, seq): earliest first, FIFO on ties.
func less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

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
// past (before Now) panics: that is always a logic error in a protocol
// implementation.
func (s *Simulator) At(t float64, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
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

// popLive discards cancelled heads and pops the earliest live event, or
// returns nil when the queue holds none. The popped event is NOT released:
// the caller reads its fields, releases it, then runs the handler (release
// first, so a handler rescheduling into the pool cannot alias a live
// handle).
func (s *Simulator) popLive() *event {
	for len(s.queue) > 0 {
		ev := s.heapPop()
		if ev.cancelled {
			s.release(ev) // live was decremented at Cancel time
			continue
		}
		s.live--
		return ev
	}
	return nil
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	ev := s.popLive()
	if ev == nil {
		return false
	}
	s.now = ev.time
	fn := ev.fn
	s.release(ev)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	s.executed++
	if s.trace != nil {
		s.trace.Emit(trace.Event{
			Kind: trace.KindDESEvent, T: s.now, WallNs: elapsed.Nanoseconds(),
		})
	}
	return true
}

// Run executes events until the queue empties. It returns the number of
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
	if s.trace != nil {
		// Traced path: per-event timing, one des.event record each.
		for len(s.queue) > 0 {
			next := s.queue[0]
			if next.cancelled {
				s.release(s.heapPop())
				continue
			}
			if next.time > tEnd {
				break
			}
			s.Step()
			n++
		}
	} else {
		// Untraced hot path: the dispatch loop inlined, reading no clock.
		for len(s.queue) > 0 {
			next := s.queue[0]
			if next.cancelled {
				s.release(s.heapPop())
				continue
			}
			if next.time > tEnd {
				break
			}
			ev := s.heapPop()
			s.live--
			s.now = ev.time
			fn := ev.fn
			s.release(ev)
			fn()
			s.executed++
			n++
		}
	}
	if !math.IsInf(tEnd, 1) && tEnd > s.now {
		s.now = tEnd
	}
	return n
}

// RunFor runs events for d simulated seconds from the current time.
func (s *Simulator) RunFor(d float64) uint64 { return s.RunUntil(s.now + d) }

// NextTime returns the absolute time of the earliest pending live event.
// Real-time executives (the wire server's core loop) use it to sleep until
// the next deferred reply is due instead of polling the kernel. Cancelled
// events at the head of the queue are discarded on the way.
func (s *Simulator) NextTime() (float64, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			s.release(s.heapPop())
			continue
		}
		return s.queue[0].time, true
	}
	return 0, false
}

// Ticker schedules fn every period seconds starting at start (absolute),
// until fn returns false or the returned Handle chain is cancelled via the
// stop function.
func (s *Simulator) Ticker(start, period float64, fn func() bool) (stop func()) {
	if period <= 0 {
		panic("des: ticker period must be positive")
	}
	stopped := false
	var schedule func(t float64)
	schedule = func(t float64) {
		s.At(t, func() {
			if stopped {
				return
			}
			if !fn() {
				stopped = true
				return
			}
			schedule(t + period)
		})
	}
	if start < s.now {
		start = s.now
	}
	schedule(start)
	return func() { stopped = true }
}
