package main

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/protocol"
	"crossroads/internal/topology"
	"crossroads/internal/traffic"
)

const (
	// numConns is how many client connections share the vehicles; each
	// vehicle keeps one connection for its whole journey.
	numConns = 2
	// servedSide is the side of the grid a single-intersection workload
	// is served on: one crossroads-serve process hosts servedSide²
	// intersections as the shards of a grid with the coordination plane
	// off, so no shard ever hears of another, and each takes its own
	// stream.
	servedSide = 4
	// warmup is the head of the stream whose replies are not sampled: the
	// server's maps and the sockets' buffers grow there.
	warmup = time.Second
	// drainWait bounds how long the client waits, once the last vehicle
	// has arrived, for the journeys still crossing to finish.
	drainWait = 15 * time.Second
	// retryInterval is how long a vehicle held by backpressure waits
	// before asking again, the simulated vehicles' RetryInterval.
	retryInterval = 350 * time.Millisecond
)

// scheduleSeedSalt separates the served stream's RNG from the simulation
// cells' derived seeds.
const scheduleSeedSalt = 0x5ca1ab1e

var (
	geometry = mustIntersection()
	params   = kinematics.ScaleModelParams()
)

func mustIntersection() *intersection.Intersection {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		panic(err)
	}
	return x
}

// server is one crossroads-serve child process.
type server struct {
	cmd        *exec.Cmd
	addr       string
	mu         sync.Mutex
	lines      []string // stdout, guarded by mu
	readerDone chan struct{}
}

// serverStats is the counter line crossroads-serve prints when it
// drains, plus the CPU time the process used over its life.
type serverStats struct {
	shed, protocolErrors, framesOut int64
	cpu                             time.Duration
}

// startServer launches crossroads-serve on an ephemeral loopback port and
// waits for it to report its address. A routed workload gets its grid
// with the coordination plane on; a single-intersection workload gets
// servedSide² unlinked shards.
func startServer(bin string, wl workload, seed int64) (*server, error) {
	args := []string{"-listen", "127.0.0.1:0", "-policy", wl.policy, "-geometry", "scale-model",
		"-seed", strconv.FormatInt(seed, 10)}
	if wl.grid > 0 {
		args = append(args, "-grid", fmt.Sprintf("%dx%d", wl.grid, wl.grid),
			"-seglen", strconv.FormatFloat(segLen, 'g', -1, 64), "-coord", "on")
	} else {
		args = append(args, "-grid", fmt.Sprintf("%dx%d", servedSide, servedSide))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start crossroads-serve: %w", err)
	}
	s := &server{cmd: cmd, readerDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.readerDone)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "crossroads-serve: tcp "); ok {
				addr <- a
			}
			s.mu.Lock()
			s.lines = append(s.lines, line)
			s.mu.Unlock()
		}
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.readerDone:
		s.cmd.Wait()
		return nil, fmt.Errorf("crossroads-serve exited before listening")
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("crossroads-serve did not report a listen address")
	}
}

// stop drains the server with SIGTERM, waits for it to exit, and parses
// its final counter line.
func (s *server) stop() (serverStats, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.readerDone:
	case <-time.After(20 * time.Second):
		s.kill()
		return serverStats{}, fmt.Errorf("crossroads-serve did not drain")
	}
	if err := s.cmd.Wait(); err != nil {
		return serverStats{}, fmt.Errorf("crossroads-serve: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, line := range s.lines {
		var st serverStats
		var accepted, framesIn int64
		if _, err := fmt.Sscanf(line, "crossroads-serve: accepted=%d shed=%d protocol_errors=%d frames_in=%d frames_out=%d",
			&accepted, &st.shed, &st.protocolErrors, &framesIn, &st.framesOut); err == nil {
			st.cpu = s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime()
			return st, nil
		}
	}
	return serverStats{}, fmt.Errorf("crossroads-serve printed no stats line")
}

// kill stops the server at once and waits for it to exit.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.readerDone
	s.cmd.Wait()
}

// journey is one served vehicle: where and when it reaches its first
// transmission line, and the legs of its route. Only the driver
// goroutine in serve touches the fields below legs.
type journey struct {
	id    int64
	due   time.Duration // at the first transmission line, from the stream's start
	legs  []topology.Leg
	turns []intersection.Turn // turns[k] is taken at legs[k]
	lane  int

	conn    *session
	leg     int           // the leg being requested or crossed
	seq     uint32        // the current leg's request sequence number
	reqDue  time.Duration // when the outstanding request was due
	reqSent time.Duration // when it went out
	reqT    float64       // its transmit time (server clock)
	asking  bool          // a request is out with no reply yet
	exitGen int           // bumped by every grant; stale exit events are dropped
	exitAt  float64       // the granted crossing's clear time (server clock)
	nextAt  float64       // when the next leg's transmission line is reached (server clock)
	exited  bool          // the exit report for this leg is out
	done    bool
}

// buildSchedule draws the served stream from the workload's own inputs:
// traffic.PoissonRoutes arrivals at each of the workload's rates in turn,
// one equal slice of the budget per rate, lightest first. A routed
// workload draws multi-leg journeys over its grid; a single-intersection
// workload draws one independent stream per served intersection.
func buildSchedule(wl workload, seed int64, budget time.Duration) ([]*journey, error) {
	rng := rand.New(rand.NewSource(seed ^ scheduleSeedSalt))
	topo := topology.Single()
	streams := servedSide * servedSide
	if wl.grid > 0 {
		g, err := topology.Grid(wl.grid, wl.grid)
		if err != nil {
			return nil, err
		}
		topo, streams = g.WithSegmentLen(segLen), 1
	}
	lanes := len(topo.EntryPoints())
	slice := budget.Seconds() / float64(len(wl.rates))
	var out []*journey
	for k, rate := range wl.rates {
		from := float64(k) * slice
		// Three times the expected arrivals, so every lane's Poisson
		// process runs past the end of the slice.
		perLane := int(3*rate*slice) + 5
		for node := 0; node < streams; node++ {
			arr, err := traffic.PoissonRoutes(traffic.PoissonConfig{
				Rate:         rate,
				NumVehicles:  perLane * lanes,
				LanesPerRoad: 1,
				Mix:          traffic.DefaultTurnMix(),
				Params:       params,
			}, topo, 0, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			// The cut at the slice's end is fair only if every lane's
			// process runs past it.
			last := map[topology.EntryPoint]float64{}
			for _, a := range arr {
				last[topology.EntryPoint{Node: topology.NodeID(a.Node), Approach: a.Movement.Approach}] = a.Time
			}
			for _, t := range last {
				if t < slice {
					return nil, fmt.Errorf("served stream at rate %g ran short of its slice", rate)
				}
			}
			for _, a := range arr {
				if a.Time >= slice {
					break
				}
				turns := append([]intersection.Turn{a.Movement.Turn}, a.OnwardTurns...)
				first := topology.NodeID(a.Node)
				legs := topo.Route(first, a.Movement.Approach, turns)
				if wl.grid == 0 {
					legs = []topology.Leg{{Node: topology.NodeID(node), Approach: a.Movement.Approach}}
				}
				out = append(out, &journey{
					due:   time.Duration((from + a.Time) * float64(time.Second)),
					legs:  legs,
					turns: turns[:len(legs)],
					lane:  a.Movement.Lane,
				})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no vehicle is due within the served %v; raise --seconds", budget)
	}
	// The stream is sent in due order; vehicle IDs follow it.
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	for i, j := range out {
		j.id = int64(i + 1)
	}
	return out, nil
}

// session is one protocol v2 client connection.
type session struct {
	nc     net.Conn
	br     *bufio.Reader
	epoch  time.Time
	offset float64 // server clock minus local clock (s)

	wbuf []byte
	seq  uint32

	// Codec time on this connection, counted only when traced.
	traced  bool
	codecNs atomic.Int64
	frames  atomic.Int64
}

func dialAll(addr string, n int) ([]*session, error) {
	var out []*session
	for i := 0; i < n; i++ {
		s, err := dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func closeAll(conns []*session) {
	for _, s := range conns {
		s.nc.Close()
	}
}

// dial connects and negotiates protocol v2 (Hello, Welcome, Topo), then
// runs one clock-sync exchange to estimate the server's clock offset.
func dial(addr string) (*session, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{nc: nc, br: bufio.NewReader(nc), epoch: time.Now()}
	fail := func(err error) (*session, error) {
		nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := s.write(protocol.Hello{MinVersion: protocol.Version2, MaxVersion: protocol.Version2,
		Clock: protocol.ClockWall, Client: "crbench"}); err != nil {
		return fail(err)
	}
	f, err := s.read()
	if err != nil {
		return fail(err)
	}
	if w, ok := f.(protocol.Welcome); !ok || w.Version != protocol.Version2 {
		return fail(fmt.Errorf("want a v2 welcome, got %#v", f))
	}
	if f, err = s.read(); err != nil {
		return fail(err)
	}
	if _, ok := f.(protocol.Topo); !ok {
		return fail(fmt.Errorf("want a topology frame, got %#v", f))
	}
	t1 := s.localNow()
	if err := s.write(protocol.Sync{T1: t1}); err != nil {
		return fail(err)
	}
	for {
		f, err := s.read()
		if err != nil {
			return fail(err)
		}
		br, ok := f.(protocol.BatchReply)
		if !ok || len(br.Items) != 1 {
			return fail(fmt.Errorf("want a sync reply, got %#v", f))
		}
		if sr, ok := br.Items[0].F.(protocol.SyncReply); ok {
			s.offset = ((sr.T2 - t1) + (sr.T3 - s.localNow())) / 2
			break
		}
	}
	nc.SetDeadline(time.Time{})
	return s, nil
}

func (s *session) localNow() float64  { return time.Since(s.epoch).Seconds() }
func (s *session) serverNow() float64 { return s.localNow() + s.offset }

// localTime is the local instant at which the server's clock reads t.
func (s *session) localTime(t float64) time.Time {
	return s.epoch.Add(time.Duration((t - s.offset) * float64(time.Second)))
}

// write encodes and writes one frame; only the encode is timed. Only one
// goroutine writes to a session at a time.
func (s *session) write(f protocol.Frame) error {
	t0 := time.Now()
	b, err := protocol.Append(s.wbuf[:0], f)
	if err != nil {
		return err
	}
	s.count(t0)
	s.wbuf = b
	_, err = s.nc.Write(b)
	return err
}

// send addresses one injectable frame to a node in a single-item batch.
func (s *session) send(node uint32, f protocol.Frame) error {
	s.seq++
	return s.write(protocol.Batch{Seq: s.seq, Items: []protocol.BatchItem{{Node: node, F: f}}})
}

// read reads one length-prefixed frame; only the decode is timed.
func (s *session) read() (protocol.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > protocol.MaxFrameSize {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(s.br, body); err != nil {
		return nil, err
	}
	t0 := time.Now()
	f, err := protocol.DecodeBody(body)
	s.count(t0)
	return f, err
}

func (s *session) count(t0 time.Time) {
	if s.traced {
		s.codecNs.Add(int64(time.Since(t0)))
		s.frames.Add(1)
	}
}

// crossingRequest builds the frame for a journey's current leg: a stock
// vehicle at top speed at the leg's transmission line, asking to arrive
// as early as it can.
func crossingRequest(j *journey) protocol.Request {
	mid := intersection.MovementID{Approach: j.legs[j.leg].Approach, Lane: j.lane, Turn: j.turns[j.leg]}
	m := geometry.Movement(mid)
	now := j.conn.serverNow()
	v := params.MaxSpeed
	return protocol.Request{
		VehicleID:    j.id,
		Seq:          j.seq,
		Approach:     uint8(mid.Approach),
		Lane:         uint8(mid.Lane),
		Turn:         uint8(mid.Turn),
		CurrentSpeed: v,
		DistToEntry:  m.EnterS,
		TransmitTime: now,
		ProposedToA:  now + m.EnterS/v,
		CrossSpeed:   v,
		MaxSpeed:     params.MaxSpeed,
		MaxAccel:     params.MaxAccel,
		MaxDecel:     params.MaxDecel,
		Length:       params.Length,
		Width:        params.Width,
		Wheelbase:    params.Wheelbase,
	}
}

// reply is one decoded reply item, stamped when its frame was read.
type reply struct {
	conn *session
	node uint32
	f    protocol.Frame
	at   time.Duration // since the stream's start
}

// readLoop forwards one connection's replies to the driver until the
// connection closes or fails; a protocol.Error frame is forwarded too.
func (s *session) readLoop(start time.Time, out chan<- reply) {
	for {
		f, err := s.read()
		if err != nil {
			return
		}
		at := time.Since(start)
		switch v := f.(type) {
		case protocol.BatchReply:
			for _, it := range v.Items {
				out <- reply{conn: s, node: it.Node, f: it.F, at: at}
			}
		case protocol.Error:
			out <- reply{conn: s, f: v, at: at}
			return
		case protocol.Bye:
			return
		}
	}
}

// event is a timed step of a journey: its next request goes out, or its
// exit report does.
type event struct {
	at   time.Time
	j    *journey
	exit bool
	gen  int // for an exit, the grant it belongs to
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(a, b int) bool { return h[a].at.Before(h[b].at) }
func (h eventHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// clientStats is the serving half of a run.
type clientStats struct {
	// Over the sampled requests, in ms: the reply timed from the send and
	// from the due time, and how late the request went out.
	fromSend, fromDue, sendLag samples
	// occupancy sums, over every timed grant, the crossings the granting
	// intersection had granted and not yet seen cleared.
	occupancy                    float64
	grants, requests, defers     int
	unfinished, badReply, stray  int
	protocolErrors, sendFailures int
	codecNsPerFrame              float64
}

// serve drives every journey through the server in wall time: each
// vehicle asks at its transmission line, holds its exit report until the
// granted crossing has cleared (granted arrival plus the crossing at the
// granted speed, on the server's clock), and on a routed workload asks
// the next intersection once it has driven the segment to that
// intersection's transmission line. Replies are timed from the send;
// the stream is open loop, so a slow server does not slow the arrivals.
func serve(conns []*session, js []*journey, coord, traced bool) clientStats {
	var cs clientStats
	replies := make(chan reply, 1024)
	var readers sync.WaitGroup
	start := time.Now()
	for _, s := range conns {
		s.traced = traced
		readers.Add(1)
		go func(s *session) {
			defer readers.Done()
			s.readLoop(start, replies)
		}(s)
	}
	byID := make(map[int64]*journey, len(js))
	var h eventHeap
	for i, j := range js {
		j.conn = conns[i%len(conns)]
		byID[j.id] = j
		heap.Push(&h, event{at: start.Add(j.due), j: j})
	}
	// held counts, per node, the granted crossings whose exit report has
	// not gone out yet.
	held := map[uint32]int{}
	left := len(js)
	lastDue := js[len(js)-1].due
	deadline := start.Add(lastDue + drainWait)

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	fire := func(e event) {
		j := e.j
		if j.done {
			return
		}
		node := uint32(j.legs[j.leg].Node)
		if e.exit {
			if e.gen != j.exitGen || j.exited {
				return
			}
			j.exited = true
			held[node]--
			if err := j.conn.send(node, protocol.Exit{VehicleID: j.id, ExitTimestamp: j.exitAt}); err != nil {
				cs.sendFailures++
			}
			return
		}
		j.seq++
		j.asking, j.exited = true, false
		j.reqDue, j.reqSent = e.at.Sub(start), time.Since(start)
		cs.requests++
		req := crossingRequest(j)
		j.reqT = req.TransmitTime
		if err := j.conn.send(node, req); err != nil {
			cs.sendFailures++
		}
	}
	handle := func(r reply) {
		if e, ok := r.f.(protocol.Error); ok {
			fmt.Fprintf(os.Stderr, "crbench: server error: %v\n", e)
			cs.protocolErrors++
			return
		}
		var id int64
		switch v := r.f.(type) {
		case protocol.Grant:
			id = v.VehicleID
		case protocol.Ack:
			id = v.VehicleID
		default:
			cs.stray++
			return
		}
		j := byID[id]
		if j == nil || j.done || j.conn != r.conn || uint32(j.legs[j.leg].Node) != r.node {
			cs.stray++
			return
		}
		switch v := r.f.(type) {
		case protocol.Grant:
			revision := !j.asking
			if revision {
				switch {
				case j.exitGen == 0: // nothing asked for it
					cs.stray++
					return
				case j.exited: // the crossing was already reported cleared
					return
				}
			} else {
				j.asking = false
				if j.reqDue >= warmup {
					cs.fromSend = append(cs.fromSend, ms(r.at-j.reqSent))
					cs.fromDue = append(cs.fromDue, ms(r.at-j.reqDue))
					cs.sendLag = append(cs.sendLag, ms(j.reqSent-j.reqDue))
				}
			}
			switch {
			case v.RespKind == uint8(im.RespTimed) && v.ArriveAt > j.reqT:
				if !revision {
					cs.grants++
					cs.occupancy += float64(held[r.node])
					held[r.node]++
				}
				// A revision leaves the earlier exit event stale.
				j.exitGen++
				m := geometry.Movement(intersection.MovementID{Approach: j.legs[j.leg].Approach, Lane: j.lane, Turn: j.turns[j.leg]})
				speed := v.TargetSpeed
				if speed <= 0.01 {
					speed = params.MaxSpeed
				}
				j.exitAt = v.ArriveAt + (m.InsideLen()+params.Length)/speed
				j.nextAt = v.ArriveAt + (m.Length-m.EnterS+segLen)/speed
				heap.Push(&h, event{at: j.conn.localTime(j.exitAt), j: j, exit: true, gen: j.exitGen})
			case coord && !revision && v.RespKind == uint8(im.RespVelocity) && v.TargetSpeed <= 0.01:
				// Backpressure: the vehicle stops short of the line and
				// asks again.
				cs.defers++
				heap.Push(&h, event{at: start.Add(r.at + retryInterval), j: j})
			default:
				// Not a reply the policy gives, or a crossing granted
				// before the vehicle asked for it.
				cs.badReply++
				j.done = true
				left--
			}
		case protocol.Ack:
			if !j.exited || v.ExitTimestamp != j.exitAt {
				cs.stray++
				return
			}
			j.exitGen = 0
			j.leg++
			if j.leg == len(j.legs) {
				j.done = true
				left--
				return
			}
			j.seq = 0
			heap.Push(&h, event{at: j.conn.localTime(j.nextAt), j: j})
		}
	}

	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for left > 0 && time.Now().Before(deadline) {
		for len(h) > 0 && !h[0].at.After(time.Now()) {
			fire(heap.Pop(&h).(event))
		}
		wake := deadline
		if len(h) > 0 && h[0].at.Before(wake) {
			wake = h[0].at
		}
		timer.Reset(time.Until(wake))
		select {
		case r := <-replies:
			handle(r)
		case <-timer.C:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	for _, s := range conns {
		s.write(protocol.Bye{Reason: "crbench done"})
		s.nc.SetReadDeadline(time.Now().Add(drainWait))
	}
	// Replies still in flight are drained so the readers can finish.
	go func() {
		readers.Wait()
		close(replies)
	}()
	for range replies {
	}
	cs.unfinished = left

	var codecNs, frames int64
	for _, s := range conns {
		codecNs += s.codecNs.Load()
		frames += s.frames.Load()
	}
	if frames > 0 {
		cs.codecNsPerFrame = float64(codecNs) / float64(frames)
	}
	if cs.grants > 0 {
		cs.occupancy /= float64(cs.grants)
	} else {
		cs.occupancy = math.NaN()
	}
	return cs
}
