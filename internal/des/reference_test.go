package des

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"crossroads/internal/trace"
)

// The test below pins the kernel's dispatch to the heap-only kernel it
// replaced, kept here as a reference copy (refSim): every tick went
// through the queue as an event rescheduled with At. Seeded random
// scripts drive both kernels in lockstep, and after every call the
// executed order, Now, Executed, Pending, the call's result and the
// number of handles reporting Cancelled must agree.

// refEvent, refHandle and refSim are the heap-only kernel.
type refEvent struct {
	time      float64
	seq       uint64
	gen       uint64
	fn        func()
	cancelled bool
	sim       *refSim
}

type refHandle struct {
	ev  *refEvent
	gen uint64
}

func (h refHandle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

func (h refHandle) Cancel() {
	if h.live() && !h.ev.cancelled {
		h.ev.cancelled = true
		h.ev.sim.live--
	}
}

func (h refHandle) Cancelled() bool { return h.live() && h.ev.cancelled }

type refSim struct {
	now      float64
	seq      uint64
	queue    []*refEvent
	live     int
	free     []*refEvent
	executed uint64
	running  bool
	trace    *trace.Recorder
}

func (s *refSim) Now() float64     { return s.now }
func (s *refSim) Executed() uint64 { return s.executed }
func (s *refSim) Pending() int     { return s.live }
func refLess(a, b *refEvent) bool  { return earlier(a.time, a.seq, b.time, b.seq) }
func (s *refSim) release(ev *refEvent) {
	ev.gen++
	ev.fn = nil
	ev.cancelled = false
	s.free = append(s.free, ev)
}

func (s *refSim) heapPush(ev *refEvent) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	s.queue = q
}

func (s *refSim) heapPop() *refEvent {
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
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		least := first
		end := min(first+4, last)
		for c := first + 1; c < end; c++ {
			if refLess(q[c], q[least]) {
				least = c
			}
		}
		if !refLess(q[least], ev) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = ev
	return top
}

func (s *refSim) At(t float64, fn func()) refHandle {
	if t < s.now {
		panic(fmt.Sprintf("ref: scheduling event at %v before now %v", t, s.now))
	}
	var ev *refEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = &refEvent{sim: s}
	}
	ev.time, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	s.heapPush(ev)
	s.live++
	return refHandle{ev: ev, gen: ev.gen}
}

func (s *refSim) After(delay float64, fn func()) refHandle {
	return s.At(s.now+max(delay, 0), fn)
}

func (s *refSim) popLive() *refEvent {
	for len(s.queue) > 0 {
		ev := s.heapPop()
		if ev.cancelled {
			s.release(ev)
			continue
		}
		s.live--
		return ev
	}
	return nil
}

func (s *refSim) Step() bool {
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
		s.trace.Emit(trace.Event{Kind: trace.KindDESEvent, T: s.now, WallNs: elapsed.Nanoseconds()})
	}
	return true
}

func (s *refSim) RunUntil(tEnd float64) uint64 {
	if s.running {
		panic("ref: reentrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	var n uint64
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.cancelled {
			s.release(s.heapPop())
			continue
		}
		if next.time > tEnd {
			break
		}
		if s.trace != nil {
			s.Step()
		} else {
			ev := s.heapPop()
			s.live--
			s.now = ev.time
			fn := ev.fn
			s.release(ev)
			fn()
			s.executed++
		}
		n++
	}
	if !math.IsInf(tEnd, 1) && tEnd > s.now {
		s.now = tEnd
	}
	return n
}

func (s *refSim) NextTime() (float64, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			s.release(s.heapPop())
			continue
		}
		return s.queue[0].time, true
	}
	return 0, false
}

func (s *refSim) Ticker(start, period float64, fn func() bool) (stop func()) {
	if start < s.now {
		start = s.now
	}
	stopped := false
	t := start
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if !fn() {
			stopped = true
			return
		}
		t += period
		s.At(t, tick)
	}
	s.At(t, tick)
	return func() { stopped = true }
}

// canceller is the part of a handle the scripts use.
type canceller interface {
	Cancel()
	Cancelled() bool
}

// kernel is what the scripts drive: the Simulator or refSim.
type kernel interface {
	At(t float64, fn func()) canceller
	After(delay float64, fn func()) canceller
	Ticker(start, period float64, fn func() bool) func()
	RunUntil(tEnd float64) uint64
	Step() bool
	NextTime() (float64, bool)
	Now() float64
	Executed() uint64
	Pending() int
}

type simKernel struct{ *Simulator }

func (k simKernel) At(t float64, fn func()) canceller        { return k.Simulator.At(t, fn) }
func (k simKernel) After(delay float64, fn func()) canceller { return k.Simulator.After(delay, fn) }

type refKernel struct{ *refSim }

func (k refKernel) At(t float64, fn func()) canceller        { return k.refSim.At(t, fn) }
func (k refKernel) After(delay float64, fn func()) canceller { return k.refSim.After(delay, fn) }

// lattice is the script's time grid: events scheduled on it tie exactly
// with the ticks, whose starts and periods lie on it too.
const lattice = 0.25

// driver runs one script against one kernel. A handler's actions are drawn
// from a stream keyed by the script seed and the handler's identity, so
// two kernels that agree so far take the same actions.
type driver struct {
	k       kernel
	seed    uint64
	log     []string
	handles []canceller
	stops   []func()
	ticks   []uint64 // ticks run per ticker
}

func (d *driver) rng(stream, n uint64) *rand.Rand {
	return rand.New(rand.NewPCG(d.seed, stream<<32|n))
}

func (d *driver) record(what string, id int) {
	d.log = append(d.log, fmt.Sprintf("%s%d@%v pending=%d executed=%d",
		what, id, d.k.Now(), d.k.Pending(), d.k.Executed()))
}

// event schedules a logged event at t; its handler acts from its own stream.
func (d *driver) event(t float64, after bool) {
	id := len(d.handles)
	fn := func() {
		d.record("ev", id)
		d.act(d.rng(1, uint64(id)), -1)
	}
	if after {
		d.handles = append(d.handles, d.k.After(t, fn))
	} else {
		d.handles = append(d.handles, d.k.At(t, fn))
	}
}

// ticker starts a logged ticker; each tick acts from the ticker's stream
// and now and then stops itself or ends by returning false.
func (d *driver) ticker(start, period float64) {
	j := len(d.stops)
	d.ticks = append(d.ticks, 0)
	d.stops = append(d.stops, d.k.Ticker(start, period, func() bool {
		d.record("tick", j)
		r := d.rng(2+uint64(j), d.ticks[j])
		d.ticks[j]++
		d.act(r, j)
		return r.IntN(40) != 0
	}))
}

// act is a handler's body: schedule a same-time event, or one on a later
// lattice point where a tick may fall; cancel a handle; stop a ticker; or
// probe NextTime from inside a handler.
func (d *driver) act(r *rand.Rand, self int) {
	now := d.k.Now()
	switch r.IntN(12) {
	case 0, 1:
		d.event(now, false)
	case 2:
		d.event(now, false)
		d.event(now+lattice*float64(r.IntN(4)), false)
	case 3:
		d.event(lattice*float64(r.IntN(5)-1), true)
	case 4:
		if len(d.handles) > 0 {
			d.handles[r.IntN(len(d.handles))].Cancel()
		}
	case 5:
		if self >= 0 && r.IntN(2) == 0 {
			d.stops[self]() // from inside its own tick
		} else if len(d.stops) > 0 {
			d.stops[r.IntN(len(d.stops))]()
		}
	case 6:
		t, ok := d.k.NextTime()
		d.log = append(d.log, fmt.Sprintf("inner next=%v,%v", t, ok))
	}
}

// onLattice returns the first lattice time at or after now.
func onLattice(now float64) float64 { return math.Ceil(now/lattice) * lattice }

// state is everything the kernels must agree on after a call.
func (d *driver) state() string {
	cancelled := 0
	for _, h := range d.handles {
		if h.Cancelled() {
			cancelled++
		}
	}
	return fmt.Sprintf("now=%v executed=%d pending=%d handles=%d cancelled=%d logged=%d",
		d.k.Now(), d.k.Executed(), d.k.Pending(), len(d.handles), cancelled, len(d.log))
}

// runScript drives the Simulator and refSim through one seeded script and
// fails at the first call after which they disagree. traced attaches a
// recorder to both, so RunUntil takes the traced path, and compares the
// des.event records too.
func runScript(t *testing.T, seed uint64, traced bool) {
	sim, ref := New(), &refSim{}
	var simRec, refRec *trace.Recorder
	if traced {
		simRec, refRec = trace.NewFull(), trace.NewFull()
		sim.SetTrace(simRec)
		ref.trace = refRec
	}
	a := &driver{k: simKernel{sim}, seed: seed}
	b := &driver{k: refKernel{ref}, seed: seed}
	script := rand.New(rand.NewPCG(seed, 0))
	for call := 0; call < 300; call++ {
		k, x, y := script.IntN(11), script.IntN(16), script.Uint64()
		do := func(d *driver) string {
			now := d.k.Now()
			switch k {
			case 0, 1:
				d.event(onLattice(now)+lattice*float64(x%8), false)
				return "At"
			case 2:
				d.event(lattice*float64(x%8)-lattice, true)
				return "After"
			case 3:
				if len(d.stops) < 6 {
					// Half the tickers start in the past and so at Now.
					d.ticker(onLattice(now)+lattice*float64(x%8-4), lattice*float64(1+y%3))
				}
				return "Ticker"
			case 4:
				if len(d.stops) > 0 {
					d.stops[y%uint64(len(d.stops))]() // from outside any tick
				}
				return "stop"
			case 5:
				if len(d.handles) > 0 {
					d.handles[y%uint64(len(d.handles))].Cancel()
				}
				return "Cancel"
			case 6, 7:
				tEnd := onLattice(now) + lattice*float64(x%10)
				if y%5 == 0 {
					tEnd += lattice / 2 // between lattice points now and then
				}
				return fmt.Sprintf("RunUntil(%v)=%d", tEnd, d.k.RunUntil(tEnd))
			case 8, 9:
				return fmt.Sprintf("Step=%v", d.k.Step())
			default:
				t, ok := d.k.NextTime()
				return fmt.Sprintf("NextTime=%v,%v", t, ok)
			}
		}
		mark := len(a.log)
		ga, gb := do(a), do(b)
		if ga != gb || a.state() != b.state() || !slices.Equal(a.log[mark:], b.log[mark:]) {
			t.Fatalf("seed %d traced=%v call %d: kernel %s %s ran %q; reference %s %s ran %q",
				seed, traced, call, ga, a.state(), a.log[mark:], gb, b.state(), b.log[mark:])
		}
	}
	if a.k.Executed() < 100 {
		t.Fatalf("seed %d: only %d events executed; the script exercises too little", seed, a.k.Executed())
	}
	if traced {
		sa, sb := simRec.Events(), refRec.Events()
		if len(sa) != len(sb) {
			t.Fatalf("seed %d: %d des.event records, reference %d", seed, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i].Kind != sb[i].Kind || sa[i].T != sb[i].T {
				t.Fatalf("seed %d: record %d is %s@%v, reference %s@%v",
					seed, i, sa[i].Kind, sa[i].T, sb[i].Kind, sb[i].T)
			}
		}
	}
}

// TestKernelMatchesHeapOnlyReference runs seeded scripts through both
// kernels, untraced and traced: events on a 0.25 s lattice tie exactly
// with tick times; tickers start in the past, run side by side, stop from
// inside and outside a tick and end by returning false; handlers schedule
// same-time events, cancel handles and probe NextTime; and the driver
// calls RunUntil on and between lattice points, Step and NextTime.
func TestKernelMatchesHeapOnlyReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		runScript(t, seed, false)
		runScript(t, seed, true)
	}
}
