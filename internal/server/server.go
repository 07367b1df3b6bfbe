package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crossroads/internal/network"
	"crossroads/internal/protocol"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
)

// Defaults for the tunable limits.
const (
	defaultSendQueue       = 256
	defaultMaxConns        = 256
	defaultReplayMaxFrames = 1 << 20
)

// Config configures a Server. The zero value is not usable: Policy is
// required, and the remaining fields default as documented.
type Config struct {
	// Policy is the registered scheduler policy to serve ("crossroads",
	// "vt-im", "aim", "batch", ...).
	Policy string
	// Geometry selects the intersection each shard manages.
	Geometry protocol.Geometry
	// Topology selects the served road network: one IM shard per node,
	// all behind the same listener, routed by node ID. Nil serves the
	// classic single intersection (node 0), wire-compatible with the
	// pre-sharding server.
	Topology *topology.Topology
	// Clock selects wall-clock serving or deterministic replay. A server
	// runs in exactly one mode; clients asking for the other are refused
	// with CodeClockMode.
	Clock protocol.ClockMode
	// Seed feeds the schedulers: shard k draws from Seed+2+1000k, the
	// stream its in-DES twin draws (im.NewShard), so node 0 is stream-
	// compatible with the unsharded server. The shards' networks draw
	// nothing: zero constant delay, no loss.
	Seed int64
	// ModelCost charges the calibrated testbed computation-cost model in
	// scheduler time. Off by default when serving: real wall time is the
	// real cost. The conformance bridge turns it on to prove jitter draws
	// stay aligned with the DES oracle.
	ModelCost bool
	// SendQueue bounds the per-connection send queue (frames); a client
	// that falls this far behind is shed. Default 256.
	SendQueue int
	// MaxConns bounds concurrent connections; excess connections are
	// refused with CodeBusy. Default 256.
	MaxConns int
	// ReplayMaxFrames bounds one replay stream; longer streams are refused
	// with CodeOverflow. Default 1<<20.
	ReplayMaxFrames int
	// Trace receives connection-lifecycle events (conn.open, conn.close,
	// conn.shed, serve.drain). May be nil.
	Trace *trace.Recorder
	// Coord arms the IM↔IM coordination plane between the shards:
	// link-state digests over in-process peer links, downstream
	// backpressure, and green-wave grant offsets. Wall mode only — replay
	// replays one client's stream against one shard, which has no peers.
	// A single-node topology accepts Coord as a harmless no-op.
	Coord bool
	// CoordPeriod overrides the digest broadcast period (s); 0 keeps the
	// default.
	CoordPeriod float64
}

// Stats is a snapshot of the server's counters. A connection contributes
// to exactly one of Shed or ProtocolErrors (or neither, for an orderly
// close): teardown ownership is decided by a single compare-and-swap, so
// a conn shed mid-drain can never also count as errored.
type Stats struct {
	Accepted       int64
	Active         int64
	Shed           int64
	ProtocolErrors int64
	FramesIn       int64
	FramesOut      int64
}

type counters struct {
	Accepted       atomic.Int64
	Shed           atomic.Int64
	ProtocolErrors atomic.Int64
	FramesIn       atomic.Int64
	FramesOut      atomic.Int64
}

// coreMsg is one unit of work for a shard executive: injectable frames
// from one connection, in arrival order — or, when peer is set, one
// IM↔IM coordination message routed in from another shard's executive
// (c and frames are then unused).
type coreMsg struct {
	c      *conn
	frames []protocol.Frame
	peer   *network.Message
}

// shard is one intersection manager: an embedded world advanced by its
// own executive goroutine. All shard fields after construction are owned
// by that goroutine.
type shard struct {
	s     *Server
	node  int
	world *world
	inbox chan coreMsg

	vehConn map[int64]*conn // vehicle id -> owning conn
	// pending holds v2 deliveries coalesced during one advance, flushed
	// as BatchReply frames afterwards.
	pending map[*conn][]protocol.BatchItem
	order   []*conn // flush order for pending (deterministic-ish, FIFO)
}

// Server hosts the sharded IM behind the wire protocol. Construct with
// New, attach listeners with ListenTCP/ListenUnix, call Start, and stop
// with Shutdown.
type Server struct {
	cfg   Config
	topo  *topology.Topology
	epoch time.Time

	// Wall mode: one executive goroutine per topology node.
	shards []*shard
	// peerShard maps IM endpoint names to their owning shard for the
	// coordination plane's peer links; nil when Coord is off. Read-only
	// after New.
	peerShard map[string]int

	quit        chan struct{} // closed by Shutdown
	readersGone chan struct{} // closed when every wall reader has exited
	done        chan struct{} // closed when all shard executives exit
	readerWG    sync.WaitGroup

	mu        sync.Mutex
	conns     map[*conn]bool // all accepted conns (true once registered)
	listeners []net.Listener

	traceMu  sync.Mutex
	stats    counters
	wg       sync.WaitGroup
	started  bool
	downOnce sync.Once
}

// New builds a server for cfg. In wall mode every shard world is built
// here so configuration errors (unknown policy, bad geometry) surface
// before any socket is opened; replay mode builds fresh worlds per
// connection but probes one up front for the same early failure.
func New(cfg Config) (*Server, error) {
	if cfg.Policy == "" {
		return nil, fmt.Errorf("server: Policy is required")
	}
	if cfg.Coord && cfg.Clock != protocol.ClockWall {
		return nil, fmt.Errorf("server: coordination requires wall mode (replay serves one shard per stream)")
	}
	if cfg.CoordPeriod < 0 {
		return nil, fmt.Errorf("server: negative CoordPeriod %v", cfg.CoordPeriod)
	}
	if cfg.CoordPeriod > 0 && !cfg.Coord {
		return nil, fmt.Errorf("server: CoordPeriod set without Coord")
	}
	topo := cfg.Topology
	if topo == nil {
		topo = topology.Single()
	}
	s := &Server{
		cfg:         cfg,
		topo:        topo,
		epoch:       time.Now(),
		quit:        make(chan struct{}),
		readersGone: make(chan struct{}),
		done:        make(chan struct{}),
		conns:       make(map[*conn]bool),
	}
	if cfg.Clock == protocol.ClockWall {
		for k := 0; k < topo.NumNodes(); k++ {
			w, err := newWorldAt(cfg, k)
			if err != nil {
				return nil, err
			}
			sh := &shard{
				s:       s,
				node:    k,
				world:   w,
				inbox:   make(chan coreMsg, 1024),
				vehConn: make(map[int64]*conn),
				pending: make(map[*conn][]protocol.BatchItem),
			}
			w.deliver = sh.deliver
			s.shards = append(s.shards, sh)
		}
		if cfg.Coord && len(s.shards) > 1 {
			s.wireCoordination()
		}
	} else {
		if _, err := newWorldAt(cfg, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NumShards returns how many IM shards the server hosts (one per
// topology node).
func (s *Server) NumShards() int { return s.topo.NumNodes() }

// ListenTCP adds a TCP listener. Call before Start.
func (s *Server) ListenTCP(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, l)
	return l.Addr(), nil
}

// ListenUnix adds a Unix-socket listener, replacing a stale socket file
// left by a previous process. Call before Start.
func (s *Server) ListenUnix(path string) (net.Addr, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, l)
	return l.Addr(), nil
}

// Start launches the accept loops and, in wall mode, one executive
// goroutine per shard plus the drain janitor.
func (s *Server) Start() error {
	if len(s.listeners) == 0 {
		return fmt.Errorf("server: no listeners; call ListenTCP or ListenUnix first")
	}
	if s.started {
		return fmt.Errorf("server: already started")
	}
	s.started = true
	if s.cfg.Clock == protocol.ClockWall {
		var cores sync.WaitGroup
		for _, sh := range s.shards {
			sh := sh
			s.wg.Add(1)
			cores.Add(1)
			go func() {
				defer cores.Done()
				sh.run()
			}()
		}
		go func() {
			cores.Wait()
			close(s.done)
		}()
		// Drain janitor: on quit, say goodbye to every registered conn,
		// then wait for the readers to unwind before releasing the shard
		// executives (which must keep consuming their inboxes until no
		// reader can be blocked sending into them).
		go func() {
			<-s.quit
			s.drainConns()
			s.readerWG.Wait()
			close(s.readersGone)
		}()
	} else {
		close(s.done) // no executives in replay mode
	}
	for _, l := range s.listeners {
		l := l
		s.wg.Add(1)
		go s.acceptLoop(l)
	}
	return nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return Stats{
		Accepted:       s.stats.Accepted.Load(),
		Active:         active,
		Shed:           s.stats.Shed.Load(),
		ProtocolErrors: s.stats.ProtocolErrors.Load(),
		FramesIn:       s.stats.FramesIn.Load(),
		FramesOut:      s.stats.FramesOut.Load(),
	}
}

// Shutdown drains the server: listeners close, live connections get a Bye
// and their queues flushed, and the shard executives exit. If ctx expires
// first the remaining sockets are forced closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.downOnce.Do(func() {
		for _, l := range s.listeners {
			l.Close()
		}
		s.emit(trace.Event{Kind: trace.KindServeDrain, T: s.wallNow()})
		if s.cfg.Clock == protocol.ClockWall && s.started {
			close(s.quit)
		} else {
			// Replay and never-started servers have no janitor: force
			// every socket closed so conn goroutines unwind.
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
		}
	})
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

func (s *Server) wallNow() float64 { return time.Since(s.epoch).Seconds() }

// emit serializes trace emission: conn goroutines and every shard
// executive emit, and trace.Recorder is not concurrency-safe.
func (s *Server) emit(ev trace.Event) {
	if s.cfg.Trace == nil {
		return
	}
	s.traceMu.Lock()
	s.cfg.Trace.Emit(ev)
	s.traceMu.Unlock()
}

func (s *Server) addConn(c *conn) {
	s.mu.Lock()
	s.conns[c] = false
	s.mu.Unlock()
}

func (s *Server) markRegistered(c *conn) {
	s.mu.Lock()
	s.conns[c] = true
	s.mu.Unlock()
}

// dropConn deregisters a finished connection and emits conn.close.
func (s *Server) dropConn(c *conn, reason string) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if present {
		s.emit(trace.Event{Kind: trace.KindConnClose, T: s.wallNow(), Detail: reason})
	}
}

// --- teardown ownership ---
//
// Every way a connection can die funnels through one of the three helpers
// below, and each starts with the same CompareAndSwap on c.dead. The
// winner — and only the winner — does the accounting, which is the fix
// for the old shed-then-errored double count: a conn shed for a full
// queue whose reader subsequently returns an error is already dead, so
// the reader's teardown attempt loses the CAS and counts nothing.

// tearDown finishes a connection without special accounting (orderly
// close, drain, bad request already accounted elsewhere). sendBye queues
// a farewell frame; if the queue is too full to even take the Bye during
// a drain, the conn is shed instead — counted once, with its conn.shed
// event, never as a protocol error.
func (s *Server) tearDown(c *conn, reason string, sendBye, abrupt bool) bool {
	if !c.dead.CompareAndSwap(false, true) {
		return false
	}
	if sendBye && !c.enqueue(protocol.Bye{Reason: reason}) {
		s.stats.Shed.Add(1)
		s.emit(trace.Event{Kind: trace.KindConnShed, T: s.wallNow(), Detail: c.name})
		reason = "slow client: send queue full at " + reason
		abrupt = true
	}
	if abrupt {
		c.nc.Close()
	}
	close(c.stop)
	s.dropConn(c, reason)
	return true
}

// shed drops a slow client: its send queue is full, so it is cut off
// immediately (no flush — the queue backlog is the problem).
func (s *Server) shed(c *conn, detail string) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	s.stats.Shed.Add(1)
	s.emit(trace.Event{Kind: trace.KindConnShed, T: s.wallNow(), Detail: c.name})
	c.nc.Close()
	close(c.stop)
	s.dropConn(c, "slow client: "+detail)
}

// failConn drops a connection for a protocol violation: one Error frame,
// one ProtocolErrors count, flushed close.
func (s *Server) failConn(c *conn, e protocol.Error) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	s.stats.ProtocolErrors.Add(1)
	c.enqueue(e)
	close(c.stop)
	s.dropConn(c, "protocol error: "+e.Msg)
}

// drainConns tears down every accepted connection for shutdown:
// registered wall conns get a Bye and a flush, the rest just lose their
// socket.
func (s *Server) drainConns() {
	s.mu.Lock()
	snapshot := make(map[*conn]bool, len(s.conns))
	for c, reg := range s.conns {
		snapshot[c] = reg
	}
	s.mu.Unlock()
	for c, registered := range snapshot {
		if registered {
			s.tearDown(c, "server drain", true, false)
		} else {
			c.nc.Close()
		}
	}
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	maxConns := s.cfg.MaxConns
	if maxConns <= 0 {
		maxConns = defaultMaxConns
	}
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.stats.Accepted.Add(1)
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n >= maxConns {
			s.refuseBusy(nc)
			continue
		}
		c := newConn(s, nc)
		s.addConn(c)
		s.emit(trace.Event{Kind: trace.KindConnOpen, T: s.wallNow(), Detail: remoteDesc(nc)})
		s.wg.Add(1)
		if s.cfg.Clock == protocol.ClockWall {
			s.readerWG.Add(1)
			go s.readLoopWall(c)
		} else {
			go s.runReplayConn(c)
		}
	}
}

// refuseBusy writes one CodeBusy error straight to an over-limit socket.
func (s *Server) refuseBusy(nc net.Conn) {
	s.stats.ProtocolErrors.Add(1)
	b, err := protocol.Encode(protocol.Error{Code: protocol.CodeBusy, Msg: "connection limit reached"})
	if err == nil {
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		nc.Write(b)
	}
	nc.Close()
}

// remoteDesc labels a connection for traces; Unix-socket peers often have
// an empty remote address.
func remoteDesc(nc net.Conn) string {
	if a := nc.RemoteAddr(); a != nil && a.String() != "" && a.String() != "@" {
		return a.Network() + ":" + a.String()
	}
	return "unix-peer"
}

// --- wall mode ---

// readLoopWall reads frames off one wall-mode connection and routes them
// to the owning shard executives. Bare v1 frames go to shard 0; v2 Batch
// frames are split by node ID. The deferred writerDone wait means the
// s.wg accounting covers the farewell flush too.
func (s *Server) readLoopWall(c *conn) {
	defer s.wg.Done()
	defer s.readerWG.Done()
	go c.writeLoop()
	r := protocol.NewReader(c.nc)
	if _, ok := c.handshake(r); !ok {
		<-c.writerDone
		return
	}
	defer func() { <-c.writerDone }()
	s.markRegistered(c)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				s.tearDown(c, "client closed", false, false)
			} else {
				s.failConn(c, protocol.Error{Code: protocol.CodeBadFrame, Msg: err.Error()})
			}
			return
		}
		c.framesIn.Add(1)
		s.stats.FramesIn.Add(1)
		if !s.routeWall(c, f) {
			return
		}
	}
}

// routeWall dispatches one client frame. It reports false when the
// connection is finished (Bye, protocol violation) and the reader should
// exit.
func (s *Server) routeWall(c *conn, f protocol.Frame) bool {
	switch v := f.(type) {
	case protocol.Request, protocol.Exit, protocol.Sync:
		s.sendToShard(0, coreMsg{c: c, frames: []protocol.Frame{f}})
		return !c.dead.Load()
	case protocol.Batch:
		if c.ver < protocol.Version2 {
			s.failConn(c, protocol.Error{Code: protocol.CodeBadFrame,
				Msg: "batch frame on a v1 connection"})
			return false
		}
		// Split per node, preserving item order within each shard.
		perNode := make(map[uint32][]protocol.Frame)
		var nodes []uint32
		for _, it := range v.Items {
			if int(it.Node) >= len(s.shards) {
				s.failConn(c, protocol.Error{Code: protocol.CodeBadNode,
					Msg: fmt.Sprintf("node %d out of range (%d shards)", it.Node, len(s.shards))})
				return false
			}
			if _, seen := perNode[it.Node]; !seen {
				nodes = append(nodes, it.Node)
			}
			perNode[it.Node] = append(perNode[it.Node], it.F)
		}
		for _, n := range nodes {
			s.sendToShard(int(n), coreMsg{c: c, frames: perNode[n]})
		}
		return !c.dead.Load()
	case protocol.Bye:
		s.tearDown(c, "client bye", true, false)
		return false
	default:
		s.failConn(c, protocol.Error{Code: protocol.CodeBadFrame,
			Msg: "unexpected " + f.Kind().String() + " frame"})
		return false
	}
}

// sendToShard blocks until the shard executive takes the message — the
// executives consume their inboxes until every reader has exited, so
// this cannot deadlock during drain.
func (s *Server) sendToShard(node int, m coreMsg) {
	s.shards[node].inbox <- m
}

// run is the shard executive: a goroutine that owns one world and
// advances simulated time to track the wall clock. Client frames inject
// at the current time; deferred IM replies (batch windows, modeled cost)
// schedule future events, and the timer sleeps until the earliest one is
// due — des.NextTime replaces polling.
func (sh *shard) run() {
	defer sh.s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case m := <-sh.inbox:
			sh.advance()
			sh.handle(m)
			sh.advance()
			sh.flush()
		case <-timer.C:
			sh.advance()
			sh.flush()
		case <-sh.s.readersGone:
			sh.drainInbox()
			return
		}
		sh.rearm(timer)
	}
}

// advance runs the world up to the wall clock, pumping any events due now
// (zero-delay deliveries land at the current instant).
func (sh *shard) advance() {
	tEnd := sh.s.wallNow()
	if now := sh.world.sim.Now(); now > tEnd {
		tEnd = now
	}
	sh.world.sim.RunUntil(tEnd)
}

// rearm points the timer at the earliest pending world event.
func (sh *shard) rearm(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	next, ok := sh.world.sim.NextTime()
	if !ok {
		t.Reset(time.Hour)
		return
	}
	d := time.Duration((next - sh.s.wallNow()) * float64(time.Second))
	if d < 0 {
		d = 0
	}
	t.Reset(d)
}

// handle injects one connection's frames into the shard world. Peer
// messages — coordination digests routed from another shard — deliver
// straight onto this world's network at the current simulated time, which
// already tracks the wall clock (both executives chase the same wall, so
// the effective link latency is the executive hand-off, near zero).
func (sh *shard) handle(m coreMsg) {
	if m.peer != nil {
		sh.world.net.DeliverRouted(*m.peer, "peer")
		return
	}
	c := m.c
	for _, f := range m.frames {
		if c.dead.Load() {
			return
		}
		id := frameVehicle(f)
		if err := sh.world.injectNow(f); err != nil {
			sh.s.failConn(c, protocol.Error{Code: protocol.CodeBadRequest, Msg: err.Error()})
			return
		}
		sh.vehConn[id] = c
	}
}

// deliver routes an IM reply to the connection owning the vehicle. It
// runs inside the DES (shard executive). v1 conns get the bare frame
// immediately; v2 deliveries coalesce into per-advance BatchReply frames.
// Dead connections are unrouted lazily, here — with multiple shards there
// is no single owner who could do it eagerly.
func (sh *shard) deliver(now float64, id int64, f protocol.Frame) {
	c := sh.vehConn[id]
	if c == nil {
		return
	}
	if c.dead.Load() {
		delete(sh.vehConn, id)
		return
	}
	if c.ver >= protocol.Version2 {
		if _, ok := sh.pending[c]; !ok {
			sh.order = append(sh.order, c)
		}
		sh.pending[c] = append(sh.pending[c], protocol.BatchItem{Node: uint32(sh.node), F: f})
		return
	}
	if !c.enqueue(f) {
		sh.s.shed(c, "send queue full")
	}
}

// flush ships the coalesced v2 deliveries, one BatchReply per connection
// per advance (chunked at the protocol's batch ceiling).
func (sh *shard) flush() {
	if len(sh.order) == 0 {
		return
	}
	for _, c := range sh.order {
		items := sh.pending[c]
		delete(sh.pending, c)
		if c.dead.Load() {
			continue
		}
		for len(items) > 0 {
			n := len(items)
			if n > protocol.MaxBatchItems {
				n = protocol.MaxBatchItems
			}
			if !c.enqueue(protocol.BatchReply{Seq: c.nextReplySeq(), Items: items[:n]}) {
				sh.s.shed(c, "send queue full")
				break
			}
			items = items[n:]
		}
	}
	sh.order = sh.order[:0]
}

// drainInbox empties whatever is left after the readers are gone, so a
// message sent just before the last reader exited is not leaked.
func (sh *shard) drainInbox() {
	for {
		select {
		case <-sh.inbox:
		default:
			return
		}
	}
}

// frameVehicle extracts the vehicle id of an injectable frame.
func frameVehicle(f protocol.Frame) int64 {
	switch v := f.(type) {
	case protocol.Request:
		return v.VehicleID
	case protocol.Exit:
		return v.VehicleID
	case protocol.Sync:
		return v.VehicleID
	}
	return 0
}
