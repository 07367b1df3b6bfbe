package server

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/protocol"
	"crossroads/internal/topology"
	"crossroads/internal/trace"

	_ "crossroads/internal/im/builtin" // register the built-in policies
)

// startServer boots a server on a temp Unix socket and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Unix socket paths are length-limited (~104 bytes); t.TempDir can
	// exceed that under deep test binaries, so keep the name short.
	path := filepath.Join(t.TempDir(), "im.sock")
	if _, err := s.ListenUnix(path); err != nil {
		t.Fatalf("ListenUnix: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, path
}

// client is a minimal test-side protocol client.
type client struct {
	t  *testing.T
	nc net.Conn
	r  *protocol.Reader
	w  *protocol.Writer
}

func dialClient(t *testing.T, path string) *client {
	t.Helper()
	nc, err := net.Dial("unix", path)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(15 * time.Second))
	return &client{t: t, nc: nc, r: protocol.NewReader(nc), w: protocol.NewWriter(nc)}
}

func (c *client) send(f protocol.Frame) {
	c.t.Helper()
	if err := c.w.WriteFrame(f); err != nil {
		c.t.Fatalf("write %s: %v", f.Kind(), err)
	}
}

func (c *client) recv() protocol.Frame {
	c.t.Helper()
	f, err := c.r.ReadFrame()
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return f
}

// handshake sends a v1-only Hello and demands a Welcome. The v1 flows in
// this file are pinned to version 1 on purpose: a v1-only client against
// the v2 server must see exactly the pre-sharding streams.
func (c *client) handshake(clock protocol.ClockMode) protocol.Welcome {
	c.t.Helper()
	c.send(protocol.Hello{MinVersion: protocol.Version1, MaxVersion: protocol.Version1,
		Clock: clock, Client: c.t.Name()})
	f := c.recv()
	w, ok := f.(protocol.Welcome)
	if !ok {
		c.t.Fatalf("expected welcome, got %#v", f)
	}
	if w.Version != protocol.Version1 {
		c.t.Fatalf("v1-only hello negotiated version %d", w.Version)
	}
	return w
}

// handshakeV2 offers the full version window and demands a v2 Welcome
// plus the Topo frame that follows it.
func (c *client) handshakeV2(clock protocol.ClockMode) (protocol.Welcome, protocol.Topo) {
	c.t.Helper()
	c.send(protocol.Hello{MinVersion: protocol.MinVersion, MaxVersion: protocol.MaxVersion,
		Clock: clock, Client: c.t.Name()})
	w, ok := c.recv().(protocol.Welcome)
	if !ok || w.Version != protocol.Version2 {
		c.t.Fatalf("expected v2 welcome, got %#v", w)
	}
	topo, ok := c.recv().(protocol.Topo)
	if !ok {
		c.t.Fatalf("expected topo after v2 welcome, got %#v", topo)
	}
	return w, topo
}

// testRequest builds a plausible scale-model crossing request.
func testRequest(id int64, seq uint32, approach uint8, tt float64) protocol.Request {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		panic(err)
	}
	mid := intersection.MovementID{Approach: intersection.Approach(approach), Lane: 0, Turn: intersection.Straight}
	p := kinematics.ScaleModelParams()
	return protocol.Request{
		VehicleID:    id,
		Seq:          seq,
		Approach:     approach,
		Lane:         0,
		Turn:         uint8(intersection.Straight),
		CurrentSpeed: 0.35,
		DistToEntry:  x.Movement(mid).EnterS,
		TransmitTime: tt,
		MaxSpeed:     p.MaxSpeed,
		MaxAccel:     p.MaxAccel,
		MaxDecel:     p.MaxDecel,
		Length:       p.Length,
		Width:        p.Width,
		Wheelbase:    p.Wheelbase,
	}
}

func TestWallServeGrantExitAck(t *testing.T) {
	s, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	w := c.handshake(protocol.ClockWall)
	if w.Policy != "crossroads" || w.Version != protocol.Version1 {
		t.Fatalf("welcome: %+v", w)
	}

	// Sync exchange: T2/T3 carry the server's scheduler clock.
	c.send(protocol.Sync{VehicleID: 7, T1: 0.001})
	sr, ok := c.recv().(protocol.SyncReply)
	if !ok || sr.T1 != 0.001 || sr.T2 < 0 {
		t.Fatalf("sync reply: %#v", sr)
	}

	c.send(testRequest(7, 1, 0, sr.T2))
	g, ok := c.recv().(protocol.Grant)
	if !ok {
		t.Fatalf("expected grant, got %#v", g)
	}
	if g.VehicleID != 7 || g.Seq != 1 {
		t.Fatalf("grant routing: %+v", g)
	}
	if im.ResponseKind(g.RespKind) != im.RespTimed {
		t.Fatalf("crossroads should issue timed commands, got %s", im.ResponseKind(g.RespKind))
	}
	if g.ArriveAt <= g.T {
		t.Fatalf("granted arrival %v not after grant time %v", g.ArriveAt, g.T)
	}

	c.send(protocol.Exit{VehicleID: 7, ExitTimestamp: g.ArriveAt})
	a, ok := c.recv().(protocol.Ack)
	if !ok || a.VehicleID != 7 || a.ExitTimestamp != g.ArriveAt {
		t.Fatalf("ack: %#v", a)
	}

	c.send(protocol.Bye{Reason: "done"})
	if _, ok := c.recv().(protocol.Bye); !ok {
		t.Fatal("expected bye back")
	}

	st := s.Stats()
	if st.ProtocolErrors != 0 || st.Shed != 0 {
		t.Fatalf("unexpected errors in stats: %+v", st)
	}
	if st.FramesIn < 4 || st.FramesOut < 4 {
		t.Fatalf("frame accounting: %+v", st)
	}
}

func TestWallServeTCP(t *testing.T) {
	s, err := New(Config{Policy: "vt-im", Clock: protocol.ClockWall, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial tcp: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(15 * time.Second))
	c := &client{t: t, nc: nc, r: protocol.NewReader(nc), w: protocol.NewWriter(nc)}
	c.handshake(protocol.ClockWall)
	c.send(testRequest(1, 1, 2, 0))
	g, ok := c.recv().(protocol.Grant)
	if !ok || im.ResponseKind(g.RespKind) != im.RespVelocity {
		t.Fatalf("vt-im should issue velocity commands, got %#v", g)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	c.send(protocol.Hello{MinVersion: 5, MaxVersion: 9, Clock: protocol.ClockWall})
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeVersion {
		t.Fatalf("expected CodeVersion error, got %#v", e)
	}
}

func TestHandshakeClockMismatch(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	c.send(protocol.Hello{MinVersion: 1, MaxVersion: 1, Clock: protocol.ClockReplay})
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeClockMode {
		t.Fatalf("expected CodeClockMode error, got %#v", e)
	}
}

func TestFrameBeforeHello(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	c.send(testRequest(1, 1, 0, 0))
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeBadFrame {
		t.Fatalf("expected CodeBadFrame error, got %#v", e)
	}
}

func TestBadRequestUnknownMovement(t *testing.T) {
	s, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	c.handshake(protocol.ClockWall)
	req := testRequest(1, 1, 0, 0)
	req.Lane = 3 // scale model has one lane per road
	c.send(req)
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeBadRequest {
		t.Fatalf("expected CodeBadRequest error, got %#v", e)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().ProtocolErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("protocol error never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBusyRefusal(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1, MaxConns: 1})
	c1 := dialClient(t, path)
	c1.handshake(protocol.ClockWall)
	c2 := dialClient(t, path)
	e, ok := c2.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeBusy {
		t.Fatalf("expected CodeBusy error, got %#v", e)
	}
}

func TestDrainSendsBye(t *testing.T) {
	s, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1})
	c := dialClient(t, path)
	c.handshake(protocol.ClockWall)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	bye, ok := c.recv().(protocol.Bye)
	if !ok {
		t.Fatalf("expected drain bye, got %#v", bye)
	}
}

// TestSlowClientShed exercises the shed path directly: a connection whose
// send queue is full is cut off when the next delivery arrives.
func TestSlowClientShed(t *testing.T) {
	s, err := New(Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1, SendQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	c := newConn(s, a)
	c.ver = protocol.Version1
	s.conns[c] = true
	sh := s.shards[0]
	sh.vehConn[9] = c

	g := protocol.Grant{VehicleID: 9, RespKind: uint8(im.RespTimed)}
	// No writer goroutine is draining, so the first delivery fills the
	// queue and the second must shed the connection.
	sh.deliver(0, 9, g)
	if c.dead.Load() {
		t.Fatal("first delivery should fit in the queue")
	}
	sh.deliver(0, 9, g)
	if !c.dead.Load() {
		t.Fatal("second delivery should have shed the connection")
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}
	// The dead conn is unrouted lazily on the next delivery.
	sh.deliver(0, 9, g)
	if sh.vehConn[9] != nil {
		t.Fatal("shed connection still routed")
	}
}

func TestReplayRejectsNonMonotonic(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockReplay, Seed: 1})
	c := dialClient(t, path)
	c.handshake(protocol.ClockReplay)
	r1 := testRequest(1, 1, 0, 1.0)
	r1.T = 1.0
	c.send(r1)
	r2 := testRequest(2, 1, 1, 0.5)
	r2.T = 0.5
	c.send(r2)
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeNonMonotonic {
		t.Fatalf("expected CodeNonMonotonic error, got %#v", e)
	}
}

func TestReplayOverflow(t *testing.T) {
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockReplay, Seed: 1, ReplayMaxFrames: 2})
	c := dialClient(t, path)
	c.handshake(protocol.ClockReplay)
	for i := 0; i < 3; i++ {
		r := testRequest(int64(i+1), 1, 0, float64(i))
		r.T = float64(i)
		c.send(r)
	}
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeOverflow {
		t.Fatalf("expected CodeOverflow error, got %#v", e)
	}
}

func TestUnknownPolicyFailsFast(t *testing.T) {
	if _, err := New(Config{Policy: "no-such-policy", Clock: protocol.ClockWall}); err == nil {
		t.Fatal("expected constructor error for unknown policy")
	}
}

// TestShedMidDrainCountsOnce pins the shed-vs-errored accounting fix: a
// connection whose send queue is too full to take the drain Bye must be
// shed exactly once — one Shed count, one conn.shed trace event — and
// must never also surface as a protocol error, even though its reader
// subsequently fails on the closed socket.
func TestShedMidDrainCountsOnce(t *testing.T) {
	rec := trace.NewFull()
	s, err := New(Config{Policy: "crossroads", Clock: protocol.ClockWall, Seed: 1,
		SendQueue: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	// net.Pipe is unbuffered and nobody reads side b: the writer goroutine
	// sticks on the first frame and the queue behind it stays full.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newConn(s, a)
	c.ver = protocol.Version1
	s.addConn(c)
	s.markRegistered(c)
	go c.writeLoop()
	c.enqueue(protocol.Grant{VehicleID: 1, RespKind: uint8(im.RespTimed)}) // writer takes this and blocks
	deadline := time.Now().Add(5 * time.Second)
	for len(c.sendq) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first frame")
		}
		c.enqueue(protocol.Grant{VehicleID: 2, RespKind: uint8(im.RespTimed)})
		time.Sleep(time.Millisecond)
	}

	// Graceful drain: the Bye cannot be enqueued, so the conn is shed.
	s.drainConns()
	if !c.dead.Load() {
		t.Fatal("drained connection not torn down")
	}
	// A reader noticing the closed socket afterwards must not re-account.
	s.failConn(c, protocol.Error{Code: protocol.CodeBadFrame, Msg: "late reader error"})
	s.tearDown(c, "late teardown", false, false)

	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	if st.ProtocolErrors != 0 {
		t.Fatalf("ProtocolErrors = %d, want 0 (shed conn must not double count)", st.ProtocolErrors)
	}
	if st.Active != 0 {
		t.Fatalf("Active = %d, want 0", st.Active)
	}
	if n := rec.KindCount(trace.KindConnShed); n != 1 {
		t.Fatalf("conn.shed events = %d, want 1", n)
	}
	if n := rec.KindCount(trace.KindConnClose); n != 1 {
		t.Fatalf("conn.close events = %d, want 1", n)
	}
}

// TestWallV2Multiplex drives a 1x2 corridor server over one v2 connection:
// requests for both nodes ride in one Batch, and the grants come back as
// BatchReply frames tagged with the owning node.
func TestWallV2Multiplex(t *testing.T) {
	topo, err := topology.Grid(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall,
		Seed: 1, Topology: topo})
	if s.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", s.NumShards())
	}
	c := dialClient(t, path)
	_, tf := c.handshakeV2(protocol.ClockWall)
	if tf.Rows != 1 || tf.Cols != 2 {
		t.Fatalf("topo frame = %+v, want 1x2", tf)
	}

	c.send(protocol.Batch{Seq: 1, Items: []protocol.BatchItem{
		{Node: 0, F: testRequest(1, 1, 0, 0.001)},
		{Node: 1, F: testRequest(2, 1, 1, 0.001)},
	}})
	got := map[uint32]int64{}
	for len(got) < 2 {
		br, ok := c.recv().(protocol.BatchReply)
		if !ok {
			t.Fatalf("expected batch reply, got %#v", br)
		}
		if br.Seq == 0 {
			t.Fatal("batch reply seq must start at 1")
		}
		for _, it := range br.Items {
			g, ok := it.F.(protocol.Grant)
			if !ok {
				t.Fatalf("expected grant item, got %#v", it.F)
			}
			got[it.Node] = g.VehicleID
		}
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("grants routed wrong: %v", got)
	}

	// A batch naming a node outside the grid is a protocol error.
	c.send(protocol.Batch{Seq: 2, Items: []protocol.BatchItem{
		{Node: 7, F: testRequest(3, 1, 0, 0.002)},
	}})
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeBadNode {
		t.Fatalf("expected CodeBadNode, got %#v", e)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().ProtocolErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("protocol error never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWallV1OnSharded proves a v1-only client still works, unchanged,
// against a sharded server: its frames land on node 0.
func TestWallV1OnSharded(t *testing.T) {
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, path := startServer(t, Config{Policy: "crossroads", Clock: protocol.ClockWall,
		Seed: 1, Topology: topo})
	c := dialClient(t, path)
	w := c.handshake(protocol.ClockWall)
	if w.Version != protocol.Version1 {
		t.Fatalf("negotiated %d, want v1", w.Version)
	}
	c.send(testRequest(7, 1, 0, 0.001))
	g, ok := c.recv().(protocol.Grant)
	if !ok || g.VehicleID != 7 {
		t.Fatalf("expected bare v1 grant for vehicle 7, got %#v", g)
	}
	// Batch frames are refused on a v1 connection.
	c.send(protocol.Batch{Seq: 1, Items: []protocol.BatchItem{
		{Node: 0, F: testRequest(8, 1, 0, 0.002)},
	}})
	e, ok := c.recv().(protocol.Error)
	if !ok || e.Code != protocol.CodeBadFrame {
		t.Fatalf("expected CodeBadFrame for v1 batch, got %#v", e)
	}
}
